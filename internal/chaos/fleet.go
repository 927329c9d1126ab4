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

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/sim"
)

type fleetSoak struct {
	*soak
	fl     *fleet.Fleet
	conns  []*offload.Conn // live connection per slot
	allIDs []int           // every id ever created (abandoned ones too)
}

// RunFleet executes one fleet chaos scenario: ops randomized compression
// offloads spread over several connections against a 3-rank fleet of
// tiny devices under the seeded fault schedule, with forced member
// failures (and natural breaker trips) mid-stream, then the
// disarm/drain/conservation check across every device. The returned
// error reports harness construction failures only; invariant breaches
// land in Report.Violations.
func RunFleet(seed int64, ops int) (Report, error) {
	h, err := newSoak("fleet", seed, armSites, sim.SystemConfig{SmartDIMMRanks: soakRanks})
	if err != nil {
		return Report{}, err
	}
	fl, err := h.newFleet([]fleet.Policy{fleet.RoundRobin, fleet.LeastLoaded, fleet.Affinity, fleet.Sticky}, nil)
	if err != nil {
		return Report{}, err
	}
	s := &fleetSoak{soak: h, fl: fl}
	for i := 0; i < 4; i++ {
		if err := s.newConn(i, true); err != nil {
			return Report{}, err
		}
	}

	// Forced rank failures at two points of the stream; the member is
	// drawn from the scenario RNG so every member sees failures across a
	// soak. Conservation is checked immediately after each drain, while
	// the fleet is mid-flight — not just at the end.
	for s.op = 0; s.op < ops; s.op++ {
		if s.op == ops/3 || s.op == (2*ops)/3 {
			victim := s.rng.Intn(fl.Members())
			if err := fl.Fail(victim); err != nil {
				return Report{}, err
			}
			s.checkDrained(victim)
			s.checkPages(fl, fmt.Sprintf("after forced failure of d%d", victim))
		}
		if err := s.opComp(s.rng.Intn(len(s.conns))); err != nil {
			return Report{}, err
		}
	}

	s.drain()
	s.checkDevices()
	s.checkPages(fl, "after final drain")

	t := fl.Totals()
	rep := s.finish(ops,
		Count{"trips", int64(t.Trips)},
		Count{"readmits", int64(t.Readmits)},
		Count{"migrations", int64(t.Migrations)},
		Count{"sheds", int64(t.Sheds)},
		Count{"soft_ops", int64(t.SoftOps)},
		Count{"primary_ops", int64(t.Degraded.PrimaryOps)},
		Count{"fallback_ops", int64(t.Degraded.FallbackOps)})
	rep.artifact("placement", fl.TraceString())
	return rep, nil
}

// checkDrained asserts no connection is still homed on a failed member.
func (s *fleetSoak) checkDrained(victim int) {
	for _, id := range s.allIDs {
		if s.fl.Home(id) == victim {
			s.violate("drain: conn %d still homed on failed d%d", id, victim)
		}
	}
}

// newConn (re)fills a connection slot. A failed operation abandons its
// connection — the fleet keeps its buffers (still counted by the
// conservation invariant) but the slot gets a fresh id.
func (s *fleetSoak) newConn(slot int, grow bool) error {
	id := s.id()
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

// opFailed classifies an operation failure and renews the slot.
func (s *fleetSoak) opFailed(slot int, label string, err error) error {
	s.fail(label, err)
	return s.newConn(slot, false)
}

// opComp compresses a message through the fleet and verifies every
// destination page decodes back to its source chunk — whether it took
// the home device's DSA, the CPU fallback rung, or (homeless) the soft
// backend, and wherever rebalancing moved the connection mid-stream.
func (s *fleetSoak) opComp(slot int) error {
	conn := s.conns[slot]
	l := offload.LayoutFor(offload.Compression)
	n := 1 + s.rng.Intn(compMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k := range chunks {
		s.track(conn, k*l.DstStride, core.PageSize)
	}
	if err := offload.StagePayloadDMA(s.sys, conn, payload); err != nil {
		return s.opFailed(slot, "fleet comp stage", err)
	}
	if _, err := s.fl.Process(offload.Compression, 0, conn, n); err != nil {
		return s.opFailed(slot, "fleet comp process", err)
	}
	rest := payload
	for k, cn := range chunks {
		out, _, err := s.sys.Driver.Use(0, conn.Dst+uint64(k*l.DstStride), core.PageSize)
		if err != nil {
			return s.opFailed(slot, "fleet comp use", err)
		}
		orig, derr := core.DecodeCompressedPage(out)
		if derr != nil {
			s.violate("fleet comp: op %d conn %d (home d%d) page %d undecodable: %v",
				s.op, conn.ID, s.fl.Home(conn.ID), k, derr)
		} else if !bytes.Equal(orig, rest[:cn]) {
			srcNow, _, _ := s.sys.Hier.Read(nil, 0, conn.Src+uint64(k*l.SrcStride), cn)
			s.violate("fleet comp: op %d conn %d (home d%d) page %d round-trip mismatch (got %d bytes, want %d, srcStale=%v, outIsSrcNow=%v)",
				s.op, conn.ID, s.fl.Home(conn.ID), k, len(orig), cn,
				!bytes.Equal(srcNow, rest[:cn]), bytes.Equal(orig, srcNow))
		}
		rest = rest[cn:]
	}
	return nil
}
