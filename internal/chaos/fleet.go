// Fleet chaos: the same randomized fault schedules, but driven through a
// multi-rank SmartDIMM fleet instead of a single device, with forced
// member failures injected mid-stream. On top of the single-device
// invariants (bit-exact round trips, typed failures), the fleet schedule
// checks the conservation invariant *across* devices:
//
//   - at every point — including immediately after a forced failure,
//     drain, and reshard — the pages allocated across all rank drivers
//     equal exactly what the fleet's live connections should hold
//     (migration may move buffers between ranks but never leak or
//     double-free them);
//   - a failed member is really drained: no connection remains homed on
//     it until it is readmitted;
//   - after disarm and drain, every device in the fleet returns to its
//     configured Scratchpad/Config free-list sizes with an empty
//     Translation Table and no record in flight — even devices whose
//     connections migrated away mid-operation (migration aborts
//     stranded records rather than leaking them);
//   - both the fault trace and the fleet's placement trace replay
//     byte-identically from the seed.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fleetRanks is the fleet schedule's device count: three ranks so a
// forced failure always leaves survivors to reshard onto, while the
// affinity policy still gets an incomplete last channel group.
const fleetRanks = 3

// FleetReport summarizes one fleet chaos scenario.
type FleetReport struct {
	Seed    int64
	Ops     int
	Devices int
	Policy  string
	// Tolerated counts operations that failed with a degradable error.
	Tolerated int
	// Consults/Fired are the injector's totals across all sites.
	Consults, Fired int64
	// Trips/Readmits/Migrations/Sheds/SoftOps are the fleet's reactions.
	Trips, Readmits, Migrations, Sheds, SoftOps uint64
	// PrimaryOps/FallbackOps are per-chunk outcomes summed over members.
	PrimaryOps, FallbackOps uint64
	Violations              []string
	// Trace is the canonical fault trace; Placement is the fleet's
	// placement trace. Both must replay byte-identically from the seed.
	Trace, Placement string
	// TracePath is where RunFleetWithTrace wrote the Perfetto trace
	// (empty for plain RunFleet).
	TracePath string
}

// Collect implements telemetry.Collector.
func (r FleetReport) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "seed", Value: float64(r.Seed)})
	emit(telemetry.Sample{Name: "ops", Value: float64(r.Ops)})
	emit(telemetry.Sample{Name: "devices", Value: float64(r.Devices)})
	emit(telemetry.Sample{Name: "tolerated", Value: float64(r.Tolerated)})
	emit(telemetry.Sample{Name: "consults", Value: float64(r.Consults)})
	emit(telemetry.Sample{Name: "fired", Value: float64(r.Fired)})
	emit(telemetry.Sample{Name: "trips", Value: float64(r.Trips)})
	emit(telemetry.Sample{Name: "readmits", Value: float64(r.Readmits)})
	emit(telemetry.Sample{Name: "migrations", Value: float64(r.Migrations)})
	emit(telemetry.Sample{Name: "sheds", Value: float64(r.Sheds)})
	emit(telemetry.Sample{Name: "soft_ops", Value: float64(r.SoftOps)})
	emit(telemetry.Sample{Name: "primary_ops", Value: float64(r.PrimaryOps)})
	emit(telemetry.Sample{Name: "fallback_ops", Value: float64(r.FallbackOps)})
	emit(telemetry.Sample{Name: "violations", Value: float64(len(r.Violations))})
}

// fleetChunk is one destination region an operation may have registered,
// tracked relative to its connection so migrations (which rewrite the
// connection's buffer addresses) can't strand the drain phase.
type fleetChunk struct {
	conn *offload.Conn
	off  uint64
	size int
}

type fleetScenario struct {
	rng  *rand.Rand
	inj  *fault.Injector
	sys  *sim.System
	fl   *fleet.Fleet
	base []byte
	rep  *FleetReport

	conns   []*offload.Conn // live connection per slot
	allIDs  []int           // every id ever created (abandoned ones too)
	nextID  int
	op      int // current op index, for violation context
	cleanup []fleetChunk
}

// RunFleet executes one fleet chaos scenario: ops randomized compression
// offloads spread over several connections against a 3-rank fleet of
// tiny devices under the seeded fault schedule, with forced member
// failures (and natural breaker trips) mid-stream, then the
// disarm/drain/conservation check across every device. The returned
// error reports harness construction failures only; invariant breaches
// land in FleetReport.Violations.
func RunFleet(seed int64, ops int) (FleetReport, error) {
	return runFleet(seed, ops, nil)
}

// RunFleetWithTrace is RunFleet with span tracing enabled; the Perfetto
// trace (including fleet trip/drain/reshard instants) lands at
// tracePath. Same-seed runs write byte-identical traces.
func RunFleetWithTrace(seed int64, ops int, tracePath string) (FleetReport, error) {
	tr := telemetry.New()
	rep, err := runFleet(seed, ops, tr)
	if err != nil {
		return rep, err
	}
	if err := tr.WritePerfettoFile(tracePath); err != nil {
		return rep, err
	}
	rep.TracePath = tracePath
	return rep, nil
}

func runFleet(seed int64, ops int, tracer *telemetry.Tracer) (FleetReport, error) {
	if ops <= 0 {
		ops = 16
	}
	rep := FleetReport{Seed: seed, Ops: ops, Devices: fleetRanks}
	rng := rand.New(rand.NewSource(seed))
	inj := fault.New(seed)
	armSites(rng, inj)

	dc := core.DeviceConfig{
		Geometry:         dram.SmallGeometry(),
		ScratchpadPages:  8,
		ConfigPages:      8,
		DSALatencyCycles: 32,
		MMIOPages:        1,
	}
	sys, err := sim.NewSystem(sim.SystemConfig{
		SmartDIMMRanks: fleetRanks,
		LLCBytes:       4 << 20,
		LLCWays:        8,
		DeviceConfig:   &dc,
		Faults:         inj,
		Tracer:         tracer,
	})
	if err != nil {
		return rep, err
	}

	policies := []fleet.Policy{fleet.RoundRobin, fleet.LeastLoaded, fleet.Affinity, fleet.Sticky}
	pol := policies[rng.Intn(len(policies))]
	rep.Policy = pol.String()
	fl, err := fleet.New(fleet.Config{
		Sys:            sys,
		Policy:         pol,
		TracePlacement: true,
		// Short breaker windows so trips and readmissions both happen
		// within a scenario-sized op stream.
		FailThreshold:      2,
		CooldownOps:        8,
		MigrateCooldownOps: 2,
	})
	if err != nil {
		return rep, err
	}

	s := &fleetScenario{
		rng:  rng,
		inj:  inj,
		sys:  sys,
		fl:   fl,
		base: corpus.Generate(corpus.HTML, 96<<10, seed),
		rep:  &rep,
	}
	for i := 0; i < 4; i++ {
		if err := s.newConn(i, true); err != nil {
			return rep, err
		}
	}

	// Forced rank failures at two points of the stream; the member is
	// drawn from the scenario RNG so every member sees failures across a
	// soak. Conservation is checked immediately after each drain, while
	// the fleet is mid-flight — not just at the end.
	failAt := map[int]bool{ops / 3: true, (2 * ops) / 3: true}
	for i := 0; i < ops; i++ {
		if failAt[i] {
			victim := s.rng.Intn(fl.Members())
			if err := fl.Fail(victim); err != nil {
				return rep, err
			}
			s.checkDrained(victim)
			s.checkConservation(fmt.Sprintf("after forced failure of d%d", victim))
		}
		s.op = i
		if err := s.opComp(s.rng.Intn(len(s.conns))); err != nil {
			return rep, err
		}
	}

	// Drain: quiesce injection, then settle every destination chunk any
	// operation may have left registered — USE consumes the record, the
	// rewrite+flush swap-recycles lines whose early writeback was
	// S7-ignored (see the single-device drain). Chunk addresses resolve
	// through the live connection structs, so buffers that migrated
	// between ranks are drained where they ended up.
	s.inj.DisarmAll()
	zeros := make([]byte, core.PageSize)
	for _, c := range s.cleanup {
		addr := c.conn.Dst + c.off
		if _, _, err := s.use(addr, c.size); err != nil {
			s.violate("drain: USE(%#x,%d) after disarm: %v", addr, c.size, err)
		}
		wlen := (c.size + 63) &^ 63
		if _, err := s.sys.Driver.WriteBuffer(0, addr, zeros[:wlen]); err != nil {
			s.violate("drain: rewrite(%#x,%d): %v", addr, wlen, err)
		}
		if _, err := s.sys.Hier.Flush(addr, wlen); err != nil {
			s.violate("drain: flush(%#x,%d): %v", addr, wlen, err)
		}
	}
	for i, dev := range s.sys.Devs {
		if free := dev.ScratchpadFreePages(); free != dc.ScratchpadPages {
			s.violate("conservation: dev %d: %d/%d scratchpad pages free after drain", i, free, dc.ScratchpadPages)
		}
		if free := dev.ConfigFreePages(); free != dc.ConfigPages {
			s.violate("conservation: dev %d: %d/%d config pages free after drain", i, free, dc.ConfigPages)
		}
		if n := dev.TranslationCount(); n != 0 {
			s.violate("conservation: dev %d: %d translation entries leaked", i, n)
		}
		if n := dev.InFlightRecords(); n != 0 {
			s.violate("conservation: dev %d: %d records still in flight", i, n)
		}
	}
	s.checkConservation("after final drain")
	if n := s.sys.Engine.Pending(); n != 0 {
		s.violate("engine: %d events leaked", n)
	}

	t := fl.Totals()
	rep.Consults, rep.Fired = inj.Counts()
	rep.Trips, rep.Readmits = t.Trips, t.Readmits
	rep.Migrations, rep.Sheds, rep.SoftOps = t.Migrations, t.Sheds, t.SoftOps
	rep.PrimaryOps, rep.FallbackOps = t.Degraded.PrimaryOps, t.Degraded.FallbackOps
	rep.Trace = inj.TraceString()
	rep.Placement = fl.TraceString()
	return rep, nil
}

func (s *fleetScenario) violate(format string, args ...interface{}) {
	s.rep.Violations = append(s.rep.Violations, fmt.Sprintf(format, args...))
}

// checkConservation asserts the cross-fleet page invariant: allocated
// pages over every rank driver must equal exactly what the fleet's live
// connections hold, wherever migration has put them.
func (s *fleetScenario) checkConservation(when string) {
	out, exp := s.fl.OutstandingPages(), s.fl.ExpectedPages()
	if out != exp {
		s.violate("conservation %s: %d pages allocated across ranks, connections should hold %d", when, out, exp)
	}
}

// checkDrained asserts no connection is still homed on a failed member.
func (s *fleetScenario) checkDrained(victim int) {
	for _, id := range s.allIDs {
		if s.fl.Home(id) == victim {
			s.violate("drain: conn %d still homed on failed d%d", id, victim)
		}
	}
}

// newConn (re)fills a connection slot. A failed operation abandons its
// connection — the fleet keeps its buffers (still counted by the
// conservation invariant) but the slot gets a fresh id.
func (s *fleetScenario) newConn(slot int, grow bool) error {
	id := s.nextID
	s.nextID++
	conn, err := s.fl.NewConn(offload.Compression, id, compMsg)
	if err != nil {
		return err
	}
	s.allIDs = append(s.allIDs, id)
	if grow {
		s.conns = append(s.conns, conn)
	} else {
		s.conns[slot] = conn
	}
	return nil
}

// opFailed classifies an operation failure (typed degradable errors are
// tolerated, anything else is a violation) and renews the slot.
func (s *fleetScenario) opFailed(slot int, label string, err error) error {
	if tolerable(err) {
		s.rep.Tolerated++
	} else {
		s.violate("%s: non-degradable error: %v", label, err)
	}
	return s.newConn(slot, false)
}

// payload returns a deterministic slice of the corpus.
func (s *fleetScenario) payload(n int) []byte {
	off := s.rng.Intn(len(s.base) - n)
	return s.base[off : off+n]
}

// use routes a USE by address: rank 0's driver flushes and reads through
// the shared hierarchy, so the owning rank's device sees the accesses
// regardless of which driver struct issues them.
func (s *fleetScenario) use(addr uint64, size int) ([]byte, int64, error) {
	return s.sys.Driver.Use(0, addr, size)
}

// opComp compresses a message through the fleet and verifies every
// destination page decodes back to its source chunk — whether it took
// the home device's DSA, the CPU fallback rung, or (homeless) the soft
// backend, and wherever rebalancing moved the connection mid-stream.
func (s *fleetScenario) opComp(slot int) error {
	conn := s.conns[slot]
	l := offload.LayoutFor(offload.Compression)
	n := 1 + s.rng.Intn(compMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k := range chunks {
		s.cleanup = append(s.cleanup, fleetChunk{conn, uint64(k * l.DstStride), core.PageSize})
	}
	if err := offload.StagePayloadDMA(s.sys, conn, payload); err != nil {
		return s.opFailed(slot, "fleet comp stage", err)
	}
	if _, err := s.fl.Process(offload.Compression, 0, conn, n); err != nil {
		return s.opFailed(slot, "fleet comp process", err)
	}
	rest := payload
	for k, cn := range chunks {
		out, _, err := s.use(conn.Dst+uint64(k*l.DstStride), core.PageSize)
		if err != nil {
			return s.opFailed(slot, "fleet comp use", err)
		}
		orig, derr := core.DecodeCompressedPage(out)
		if derr != nil {
			s.violate("fleet comp: op %d conn %d (home d%d) page %d undecodable: %v",
				s.op, conn.ID, s.fl.Home(conn.ID), k, derr)
		} else if !bytes.Equal(orig, rest[:cn]) {
			srcNow, _, _ := s.sys.ReadBytes(0, conn.Src+uint64(k*l.SrcStride), cn)
			s.violate("fleet comp: op %d conn %d (home d%d) page %d round-trip mismatch (got %d bytes, want %d, srcStale=%v, outIsSrcNow=%v)",
				s.op, conn.ID, s.fl.Home(conn.ID), k, len(orig), cn,
				!bytes.Equal(srcNow, rest[:cn]), bytes.Equal(orig, srcNow))
		}
		rest = rest[cn:]
	}
	return nil
}
