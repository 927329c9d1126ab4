// Package chaos drives randomized, seed-reproducible fault schedules
// across every layer of the simulator at once — DRAM ALERT_N, memory
// controller CRC retries, DSA faults, translation-table insert failures
// — while running real offload traffic, and checks the invariants that
// must survive any fault the injector can express:
//
//   - round trips stay bit-exact: a TLS record that Process encrypted
//     (or a page the Deflate DSA compressed) must decrypt/inflate back
//     to the staged payload, whether it took the DSA path or any rung
//     of the degradation ladder (Force-Recycle, CPU fallback);
//   - failures are typed: the only errors an operation may surface are
//     the degradable set the offload layer recovers from
//     (core.ErrNoScratchpad, core.ErrTranslationInsert, core.ErrDSAFault,
//     memctrl.ErrAlertRetryExhausted);
//   - resources conserve: once injection is disarmed and every touched
//     destination chunk is drained (USE, then a buffer-reuse
//     rewrite+flush), the Scratchpad and
//     Config Memory free lists return to their configured sizes, the
//     Translation Table is empty, no record is in flight, and the event
//     engine holds no leaked events;
//   - schedules replay: the same seed reproduces the identical fault
//     trace (fault.Injector.TraceString) and the identical report.
//
// Every soak returns one Report: named counts in a fixed order, the
// canonical replay artifacts, and the violations, rendered by one
// String. The device, fleet and RDMA soaks share one harness (soak): a
// deliberately tiny device (8 Scratchpad / 8 Config pages) so
// multi-record operations exercise Force-Recycle and genuine exhaustion,
// not just the injected faults.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/deflate"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ulp"
)

// Message capacities of the per-scenario connections: two records per
// operation keeps multi-chunk pressure on the tiny scratchpad.
const (
	tlsMsg  = 2 * offload.MaxTLSPayload
	compMsg = 2 * core.MaxCompressInput
)

// Report is one soak's outcome. Violations lists every invariant
// breach; an empty list means the soak survived. Two runs of the same
// seed must render identical strings regardless of execution schedule.
type Report struct {
	Soak string
	Seed int64
	// Counts are the soak's totals, in the order the soak records them.
	Counts []Count
	// Artifacts are the canonical replay artifacts: fault, placement
	// and NIC traces, the cluster schedule and check, the workload
	// canonical, incident bundles.
	Artifacts  []Artifact
	Violations []string
}

// Count is one named soak total.
type Count struct {
	Name string
	N    int64
}

// Artifact is one named canonical replay artifact.
type Artifact struct{ Name, Text string }

func (r *Report) count(name string, n int64) { r.Counts = append(r.Counts, Count{name, n}) }

func (r *Report) artifact(name, text string) {
	r.Artifacts = append(r.Artifacts, Artifact{name, text})
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Count returns the named total. It panics on a name the soak does not
// record, so a misspelt name cannot read as a silent zero.
func (r Report) Count(name string) int64 {
	for _, c := range r.Counts {
		if c.Name == name {
			return c.N
		}
	}
	panic(fmt.Sprintf("chaos: %s soak records no count %q", r.Soak, name))
}

// Artifact returns the named artifact's text, or "" if the soak has none.
func (r Report) Artifact(name string) string {
	for _, a := range r.Artifacts {
		if a.Name == name {
			return a.Text
		}
	}
	return ""
}

// Ok reports whether every invariant held.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

// String renders the canonical soak transcript: the header, every count
// on one line, every artifact under its name, then the violations.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s chaos seed=%d\n", r.Soak, r.Seed)
	for i, c := range r.Counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c.Name, c.N)
	}
	b.WriteByte('\n')
	for _, a := range r.Artifacts {
		fmt.Fprintf(&b, "-- %s --\n%s", a.Name, a.Text)
		if a.Text != "" && !strings.HasSuffix(a.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v)
	}
	return b.String()
}

// armSites installs an independent random plan (or none) at every
// injection site, drawn from the scenario RNG. Window plans are
// excluded: direct driver traffic never advances the event clock, so
// time-windowed plans would silently never fire.
func armSites(rng *rand.Rand, inj *fault.Injector) {
	sites := []string{"memctrl.crc", "dram.alert", "core.alert", "core.dsa", "core.ttinsert"}
	for _, site := range sites {
		switch rng.Intn(5) {
		case 0:
			// unarmed: this layer stays on its fault-free path
		case 1:
			inj.Arm(site, fault.Bernoulli{Prob: 0.01 + 0.15*rng.Float64()})
		case 2:
			inj.Arm(site, fault.Periodic{Every: int64(2 + rng.Intn(30)), Offset: int64(rng.Intn(8))})
		case 3:
			inj.Arm(site, fault.OneShot{N: int64(1 + rng.Intn(50))})
		case 4:
			inj.Arm(site, fault.Burst{GE: fault.GEConfig{
				PGoodBad: 0.02 + 0.1*rng.Float64(),
				PBadGood: 0.2,
				LossBad:  0.5 + 0.4*rng.Float64(),
			}})
		}
	}
}

// Every harness soak runs on tiny devices (tinyPages Scratchpad and
// Config pages each); the fleet and RDMA soaks use soakRanks of them, so
// a forced failure always leaves survivors to reshard onto while the
// affinity policy still gets an incomplete last channel group.
const (
	tinyPages = 8
	soakRanks = 3
)

// soak is the harness the device, fleet and RDMA soaks share: the
// seeded RNG and injector, the corpus payloads, the tiny system,
// violation and tolerated-error accounting, and the drain plus
// per-device conservation sweep.
type soak struct {
	Report
	rng       *rand.Rand
	inj       *fault.Injector
	sys       *sim.System
	base      []byte
	tolerated int64
	nextID    int
	op        int // current operation index, for violation context
	cleanup   []chunkRef
}

// chunkRef is one destination chunk an operation may have left
// registered, held relative to its connection so a migration (which
// rewrites the connection's buffer addresses) cannot strand the drain.
type chunkRef struct {
	conn *offload.Conn
	off  uint64
	size int
}

// newSoak seeds the RNG and injector, lets arm draw the fault plan from
// them, and builds the system cfg describes (ranks, data path, tracer)
// on tiny devices behind a 4MB LLC.
func newSoak(name string, seed int64, arm func(*rand.Rand, *fault.Injector), cfg sim.SystemConfig) (*soak, error) {
	s := &soak{
		Report: Report{Soak: name, Seed: seed},
		rng:    rand.New(rand.NewSource(seed)),
		inj:    fault.New(seed),
		base:   corpus.Generate(corpus.HTML, 96<<10, seed),
	}
	arm(s.rng, s.inj)
	cfg.DeviceConfig = &core.DeviceConfig{
		Geometry:        dram.SmallGeometry(),
		ScratchpadPages: tinyPages,
		ConfigPages:     tinyPages,
	}
	cfg.LLCBytes, cfg.LLCWays, cfg.Faults = 4<<20, 8, s.inj
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	s.sys = sys
	return s, nil
}

// newFleet draws a placement policy from the soak RNG and builds a
// fleet over the soak's ranks with short breaker windows, so trips and
// readmissions both happen within a soak-sized op stream. nic, when
// non-nil, gives the fleet the peer-DMA NIC to rebind registrations on.
func (s *soak) newFleet(policies []fleet.Policy, nic *rdma.NIC) (*fleet.Fleet, error) {
	pol := policies[s.rng.Intn(len(policies))]
	s.artifact("policy", pol.String())
	return fleet.New(fleet.Config{
		Sys: s.sys, Policy: pol, RNIC: nic, TracePlacement: true,
		FailThreshold: 2, CooldownOps: 8, MigrateCooldownOps: 2,
	})
}

// id hands out the next connection id.
func (s *soak) id() int {
	s.nextID++
	return s.nextID - 1
}

// fail classifies an operation failure: typed degradable errors are
// tolerated, anything else is a violation.
func (s *soak) fail(label string, err error) {
	if offload.Degradable(err) {
		s.tolerated++
	} else {
		s.violate("%s: non-degradable error: %v", label, err)
	}
}

// payload returns a deterministic slice of the corpus.
func (s *soak) payload(n int) []byte {
	off := s.rng.Intn(len(s.base) - n)
	return s.base[off : off+n]
}

// track records a destination chunk for the drain.
func (s *soak) track(conn *offload.Conn, off, size int) {
	s.cleanup = append(s.cleanup, chunkRef{conn, uint64(off), size})
}

// drain quiesces injection, then settles every destination chunk any
// operation may have left registered. USE consumes the record the
// normal way; the rewrite+flush models the software reusing the
// buffer, which swap-recycles any line whose early writeback was
// S7-ignored while the DSA was still producing it (such a line's LLC
// copy is clean, so USE's flush alone never writes it back). Chunk
// addresses resolve through the live connection structs, so buffers
// that migrated between ranks drain where they ended up. With faults
// disarmed every step must succeed. Rank 0's driver reaches every rank:
// it flushes and reads through the shared hierarchy.
func (s *soak) drain() {
	s.inj.DisarmAll()
	zeros := make([]byte, offload.MaxTLSPayload+aesgcm.TagSize) // the largest chunk: a full TLS record
	for _, c := range s.cleanup {
		addr := c.conn.Dst + c.off
		if _, _, err := s.sys.Driver.Use(0, addr, c.size); err != nil {
			s.violate("drain: USE(%#x,%d) after disarm: %v", addr, c.size, err)
		}
		wlen := (c.size + 63) &^ 63 // stays within the chunk's pages
		if _, err := s.sys.Hier.Write(0, addr, zeros[:wlen]); err != nil {
			s.violate("drain: rewrite(%#x,%d): %v", addr, wlen, err)
		}
		if _, err := s.sys.Hier.Flush(addr, wlen); err != nil {
			s.violate("drain: flush(%#x,%d): %v", addr, wlen, err)
		}
	}
}

// checkDevices is the post-drain conservation sweep: every device is
// back at its configured free-list sizes with an empty Translation
// Table and no record in flight — even devices whose connections
// migrated away mid-operation — and the engine holds no leaked events.
func (s *soak) checkDevices() {
	for i, dev := range s.sys.Devs {
		if free := dev.ScratchpadFreePages(); free != tinyPages {
			s.violate("conservation: dev %d: %d/%d scratchpad pages free after drain", i, free, tinyPages)
		}
		if free := dev.ConfigFreePages(); free != tinyPages {
			s.violate("conservation: dev %d: %d/%d config pages free after drain", i, free, tinyPages)
		}
		if n := dev.TranslationCount(); n != 0 {
			s.violate("conservation: dev %d: %d translation entries leaked", i, n)
		}
		if n := dev.InFlightRecords(); n != 0 {
			s.violate("conservation: dev %d: %d records still in flight", i, n)
		}
	}
	if n := s.sys.Engine.Pending(); n != 0 {
		s.violate("engine: %d events leaked", n)
	}
}

// checkPages asserts the cross-fleet page invariant: allocated pages
// over every rank driver equal exactly what the fleet's live
// connections hold, wherever migration has put them.
func (s *soak) checkPages(fl *fleet.Fleet, when string) {
	if out, exp := fl.OutstandingPages(), fl.ExpectedPages(); out != exp {
		s.violate("conservation %s: %d pages allocated across ranks, connections should hold %d", when, out, exp)
	}
}

// finish records the counts every harness soak shares, then the soak's
// own, then the canonical fault trace.
func (s *soak) finish(ops int, counts ...Count) Report {
	consults, fired := s.inj.Counts()
	s.count("ops", int64(ops))
	s.count("tolerated", s.tolerated)
	s.count("consults", consults)
	s.count("fired", fired)
	s.Counts = append(s.Counts, counts...)
	s.artifact("faults", s.inj.TraceString())
	return s.Report
}

// deviceSoak drives one tiny SmartDIMM directly through its offload
// backend.
type deviceSoak struct {
	*soak
	off *offload.SmartDIMM
	// tls+tlsShadow share an id and therefore key material: the shadow's
	// NextIV is consumed in lockstep with the operation conn's, giving
	// the verifier the IV sequence without reaching into unexported
	// state. Any failed operation abandons the pair (the conn's sequence
	// number is indeterminate after a partial operation) and allocates a
	// fresh one under a new id.
	tls, tlsShadow *offload.Conn
	comp           *offload.Conn
	// enc frames the pages opCompRX stages, reused across operations.
	enc *deflate.HWEncoder
}

// Run executes one device soak: ops randomized operations (TLS TX/RX,
// compression TX/RX) against a tiny SmartDIMM under the seeded fault
// schedule, a plain-DIMM read/write phase under dram.alert, then the
// disarm/drain/conservation check. A non-nil tr records the run's spans
// (fault instants, driver CompCpy spans, device events, controller
// drains); same-seed runs record byte-identical traces. The returned
// error reports harness construction failures only; invariant breaches
// land in Report.Violations.
func Run(seed int64, ops int, tr *telemetry.Tracer) (Report, error) {
	h, err := newSoak("device", seed, armSites, sim.SystemConfig{WithSmartDIMM: true, Tracer: tr})
	if err != nil {
		return Report{}, err
	}
	s := &deviceSoak{soak: h, off: &offload.SmartDIMM{Sys: h.sys}}
	if err := s.newTLSPair(); err != nil {
		return Report{}, err
	}
	if err := s.newComp(); err != nil {
		return Report{}, err
	}

	for s.op = 0; s.op < ops; s.op++ {
		var err error
		switch s.rng.Intn(4) {
		case 0:
			err = s.opTLSTX()
		case 1:
			err = s.opTLSRX()
		case 2:
			err = s.opCompTX()
		case 3:
			err = s.opCompRX()
		}
		if err != nil {
			return Report{}, err
		}
	}

	psys, err := s.plainDIMMPhase()
	if err != nil {
		return Report{}, err
	}
	s.drain()
	s.checkDevices()
	if n := psys.Engine.Pending(); n != 0 {
		s.violate("engine: %d events leaked on plain-DIMM system", n)
	}
	return s.finish(ops,
		Count{"primary_ops", int64(s.off.Degraded.PrimaryOps)},
		Count{"fallback_ops", int64(s.off.Degraded.FallbackOps)}), nil
}

// opFailed classifies an operation failure and renews the affected
// connection so later operations start from known sequence state.
func (s *deviceSoak) opFailed(label string, err error, renew func() error) error {
	s.fail(label, err)
	return renew()
}

func (s *deviceSoak) newTLSPair() error {
	id := s.id()
	conn, err := s.off.NewConn(offload.TLS, id, tlsMsg)
	if err != nil {
		return err
	}
	shadow, err := s.off.NewConn(offload.TLS, id, tlsMsg)
	if err != nil {
		return err
	}
	s.tls, s.tlsShadow = conn, shadow
	return nil
}

func (s *deviceSoak) newComp() error {
	conn, err := s.off.NewConn(offload.Compression, s.id(), compMsg)
	if err != nil {
		return err
	}
	s.comp = conn
	return nil
}

// opTLSTX encrypts a message through Process and verifies every record
// decrypts back to the staged payload with the mirrored IV sequence.
func (s *deviceSoak) opTLSTX() error {
	l := offload.LayoutFor(offload.TLS)
	n := 1 + s.rng.Intn(tlsMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k, cn := range chunks {
		s.track(s.tls, k*l.DstStride, cn+aesgcm.TagSize)
	}
	if err := offload.StagePayloadDMA(s.sys, s.tls, payload); err != nil {
		return s.opFailed("tls-tx stage", err, s.newTLSPair)
	}
	if _, err := s.off.Process(offload.TLS, 0, s.tls, n); err != nil {
		return s.opFailed("tls-tx process", err, s.newTLSPair)
	}
	g, err := aesgcm.NewGCM(s.tls.Key)
	if err != nil {
		return err
	}
	rest := payload
	for k, cn := range chunks {
		iv := s.tlsShadow.NextIV()
		out, _, err := s.sys.Driver.Use(0, s.tls.Dst+uint64(k*l.DstStride), cn+aesgcm.TagSize)
		if err != nil {
			return s.opFailed("tls-tx use", err, s.newTLSPair)
		}
		pt, oerr := g.Open(nil, iv, out, ulp.Header(cn+aesgcm.TagSize))
		if oerr != nil {
			s.violate("tls-tx: record %d does not decrypt: %v", k, oerr)
		} else if !bytes.Equal(pt, rest[:cn]) {
			s.violate("tls-tx: record %d round-trip mismatch", k)
		}
		rest = rest[cn:]
	}
	return nil
}

// opTLSRX seals records with the shadow's IV sequence, stages them as
// NIC RX traffic, and decrypts them through the SmartDIMM receive path.
func (s *deviceSoak) opTLSRX() error {
	l := offload.LayoutFor(offload.TLS)
	g, err := aesgcm.NewGCM(s.tls.Key)
	if err != nil {
		return err
	}
	nrec := 1 + s.rng.Intn(2)
	var records [][]byte
	var lens []int
	var want []byte
	for k := 0; k < nrec; k++ {
		cn := 1 + s.rng.Intn(offload.MaxTLSPayload)
		pt := s.payload(cn)
		sealed, err := g.Seal(nil, s.tlsShadow.NextIV(), pt, ulp.Header(cn+aesgcm.TagSize))
		if err != nil {
			return err
		}
		records = append(records, sealed)
		lens = append(lens, cn)
		want = append(want, pt...)
		s.track(s.tls, k*l.DstStride, cn+aesgcm.TagSize)
	}
	if err := offload.StageRXRecordsDMA(s.sys, s.tls, records); err != nil {
		return s.opFailed("tls-rx stage", err, s.newTLSPair)
	}
	res, err := s.off.ReceiveTLS(0, s.tls, lens)
	if err != nil {
		return s.opFailed("tls-rx receive", err, s.newTLSPair)
	}
	if !res.AuthOK {
		s.violate("tls-rx: authentication failed on valid records")
	}
	if !bytes.Equal(res.Payload, want) {
		s.violate("tls-rx: payload mismatch")
	}
	return nil
}

// opCompTX compresses a message through Process and verifies every
// destination page decodes back to its source chunk.
func (s *deviceSoak) opCompTX() error {
	l := offload.LayoutFor(offload.Compression)
	n := 1 + s.rng.Intn(compMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k := range chunks {
		s.track(s.comp, k*l.DstStride, core.PageSize)
	}
	if err := offload.StagePayloadDMA(s.sys, s.comp, payload); err != nil {
		return s.opFailed("comp-tx stage", err, s.newComp)
	}
	if _, err := s.off.Process(offload.Compression, 0, s.comp, n); err != nil {
		return s.opFailed("comp-tx process", err, s.newComp)
	}
	rest := payload
	for k, cn := range chunks {
		out, _, err := s.sys.Driver.Use(0, s.comp.Dst+uint64(k*l.DstStride), core.PageSize)
		if err != nil {
			return s.opFailed("comp-tx use", err, s.newComp)
		}
		orig, derr := core.DecodeCompressedPage(out)
		if derr != nil {
			s.violate("comp-tx: page %d undecodable: %v", k, derr)
		} else if !bytes.Equal(orig, rest[:cn]) {
			s.violate("comp-tx: page %d round-trip mismatch", k)
		}
		rest = rest[cn:]
	}
	return nil
}

// opCompRX stages wire-format compressed pages as RX traffic and
// inflates them through the SmartDIMM receive path.
func (s *deviceSoak) opCompRX() error {
	l := offload.LayoutFor(offload.Compression)
	if s.enc == nil {
		s.enc = deflate.NewHWEncoder(deflate.PaperHWConfig())
	}
	nrec := 1 + s.rng.Intn(2)
	var records [][]byte
	var lens []int
	var want [][]byte
	for k := 0; k < nrec; k++ {
		cn := 1 + s.rng.Intn(core.MaxCompressInput)
		data := s.payload(cn)
		page, err := core.EncodeCompressedPage(data, s.enc)
		if err != nil {
			return err
		}
		plen, err := core.CompressedPayloadLen(page)
		if err != nil {
			return err
		}
		// Stage the full page so stale bytes from earlier operations in
		// the stride cannot alias into this record.
		records = append(records, page)
		lens = append(lens, 4+plen)
		want = append(want, data)
		s.track(s.comp, k*l.DstStride, core.PageSize)
	}
	if err := offload.StageRXRecordsDMA(s.sys, s.comp, records); err != nil {
		return s.opFailed("comp-rx stage", err, s.newComp)
	}
	res, err := s.off.ReceiveCompressed(0, s.comp, lens)
	if err != nil {
		return s.opFailed("comp-rx receive", err, s.newComp)
	}
	// Each record inflates into one page-sized slot of the payload.
	for k, data := range want {
		if len(res.Payload) < k*core.PageSize+len(data) {
			s.violate("comp-rx: payload truncated at record %d", k)
			break
		}
		if !bytes.Equal(res.Payload[k*core.PageSize:k*core.PageSize+len(data)], data) {
			s.violate("comp-rx: record %d mismatch", k)
		}
	}
	return nil
}

// plainDIMMPhase exercises the dram.alert site: a plain (non-SmartDIMM)
// channel under injected ALERT_N must still round-trip data bit-exact —
// alerts cost retries, never correctness. The write-back is forced with
// a flush so the reads actually reach DRAM.
func (s *deviceSoak) plainDIMMPhase() (*sim.System, error) {
	psys, err := sim.NewSystem(sim.SystemConfig{
		LLCBytes: 1 << 20,
		LLCWays:  4,
		Faults:   s.inj,
	})
	if err != nil {
		return nil, err
	}
	data := s.payload(2 * dram.PageSize)
	if _, err := psys.Hier.Write(0, 0, data); err != nil {
		s.fail("plain-dimm write", err)
		return psys, nil
	}
	if _, err := psys.Hier.Flush(0, len(data)); err != nil {
		s.fail("plain-dimm flush", err)
		return psys, nil
	}
	got, _, err := psys.Hier.Read(nil, 0, 0, len(data))
	if err != nil {
		s.fail("plain-dimm read", err)
		return psys, nil
	}
	if !bytes.Equal(got, data) {
		s.violate("plain-dimm: data corrupted under ALERT_N injection")
	}
	return psys, nil
}
