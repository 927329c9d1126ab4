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
// A scenario deliberately runs on a tiny device (8 Scratchpad / 8
// Config pages) so multi-record operations exercise Force-Recycle and
// genuine exhaustion, not just the injected faults.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/deflate"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/memctrl"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Message capacities of the per-scenario connections: two records per
// operation keeps multi-chunk pressure on the tiny scratchpad.
const (
	tlsMsg  = 2 * offload.MaxTLSPayload
	compMsg = 2 * core.MaxCompressInput
)

// Report summarizes one chaos scenario. Violations lists every
// invariant breach; an empty list means the scenario survived.
type Report struct {
	Seed int64
	Ops  int
	// Tolerated counts operations that failed with a degradable error
	// (the typed set the software stack recovers from) — expected under
	// injection, not a violation.
	Tolerated int
	// Consults/Fired are the injector's totals across all sites.
	Consults, Fired int64
	// PrimaryOps/FallbackOps are per-chunk outcomes from the SmartDIMM
	// backend's degradation counters.
	PrimaryOps, FallbackOps uint64
	Violations              []string
	// Trace is the canonical fault trace: equal across runs of the same
	// seed, the reproducibility artifact.
	Trace string
	// TracePath is where RunWithTrace wrote the Perfetto trace (empty
	// for plain Run).
	TracePath string
}

// Collect implements telemetry.Collector.
func (r Report) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "seed", Value: float64(r.Seed)})
	emit(telemetry.Sample{Name: "ops", Value: float64(r.Ops)})
	emit(telemetry.Sample{Name: "tolerated", Value: float64(r.Tolerated)})
	emit(telemetry.Sample{Name: "consults", Value: float64(r.Consults)})
	emit(telemetry.Sample{Name: "fired", Value: float64(r.Fired)})
	emit(telemetry.Sample{Name: "primary_ops", Value: float64(r.PrimaryOps)})
	emit(telemetry.Sample{Name: "fallback_ops", Value: float64(r.FallbackOps)})
	emit(telemetry.Sample{Name: "violations", Value: float64(len(r.Violations))})
}

// chunkRef is one destination region an operation may have registered;
// the drain phase USEs every one of them to settle accounting.
type chunkRef struct {
	addr uint64
	size int
}

// tolerable mirrors the offload layer's degradable set: the only
// errors chaos operations are allowed to surface.
func tolerable(err error) bool {
	return errors.Is(err, core.ErrNoScratchpad) ||
		errors.Is(err, core.ErrTranslationInsert) ||
		errors.Is(err, core.ErrDSAFault) ||
		errors.Is(err, memctrl.ErrAlertRetryExhausted)
}

// tlsAAD rebuilds the 5-byte TLS record header the backends use as AAD.
func tlsAAD(n int) []byte {
	m := n + aesgcm.TagSize
	return []byte{0x17, 0x03, 0x03, byte(m >> 8), byte(m)}
}

type scenario struct {
	rng  *rand.Rand
	inj  *fault.Injector
	sys  *sim.System
	off  *offload.SmartDIMM
	base []byte
	rep  *Report

	// tls+tlsShadow share an id and therefore key material: the shadow's
	// NextIV is consumed in lockstep with the operation conn's, giving
	// the verifier the IV sequence without reaching into unexported
	// state. Any failed operation abandons the pair (the conn's sequence
	// number is indeterminate after a partial operation) and allocates a
	// fresh one under a new id.
	tls, tlsShadow *offload.Conn
	comp           *offload.Conn
	nextID         int
	// enc frames the pages opCompRX stages, reused across operations.
	enc *deflate.HWEncoder

	cleanup []chunkRef
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

// Run executes one chaos scenario: ops randomized operations (TLS
// TX/RX, compression TX/RX) against a tiny SmartDIMM under the seeded
// fault schedule, a plain-DIMM read/write phase under dram.alert, then
// the disarm/drain/conservation check. The returned error reports
// harness construction failures only; invariant breaches land in
// Report.Violations.
func Run(seed int64, ops int) (Report, error) {
	return run(seed, ops, nil)
}

// RunWithTrace is Run with span tracing enabled: the scenario records a
// Perfetto trace (fault instants, driver CompCpy spans, device events,
// controller drains) and writes it to tracePath. Same-seed runs write
// byte-identical traces.
func RunWithTrace(seed int64, ops int, tracePath string) (Report, error) {
	tr := telemetry.New()
	rep, err := run(seed, ops, tr)
	if err != nil {
		return rep, err
	}
	if err := tr.WritePerfettoFile(tracePath); err != nil {
		return rep, err
	}
	rep.TracePath = tracePath
	return rep, nil
}

func run(seed int64, ops int, tracer *telemetry.Tracer) (Report, error) {
	if ops <= 0 {
		ops = 12
	}
	rep := Report{Seed: seed, Ops: ops}
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
		WithSmartDIMM: true,
		LLCBytes:      4 << 20,
		LLCWays:       8,
		DeviceConfig:  &dc,
		Faults:        inj,
		Tracer:        tracer,
	})
	if err != nil {
		return rep, err
	}

	s := &scenario{
		rng:  rng,
		inj:  inj,
		sys:  sys,
		off:  &offload.SmartDIMM{Sys: sys},
		base: corpus.Generate(corpus.HTML, 96<<10, seed),
		rep:  &rep,
	}
	if err := s.newTLSPair(); err != nil {
		return rep, err
	}
	if err := s.newComp(); err != nil {
		return rep, err
	}

	for i := 0; i < ops; i++ {
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
			return rep, err
		}
	}

	psys, err := s.plainDIMMPhase()
	if err != nil {
		return rep, err
	}

	// Drain: quiesce injection, then reclaim every destination chunk any
	// operation may have left registered. USE consumes the record the
	// normal way; the rewrite+flush models the software reusing the
	// buffer, which swap-recycles any line whose early writeback was
	// S7-ignored while the DSA was still producing it (such a line's LLC
	// copy is clean, so USE's flush alone never writes it back). With
	// faults disarmed every step must succeed, and afterwards every
	// resource pool must be back at its configured size.
	s.inj.DisarmAll()
	zeros := make([]byte, (tlsMsg/2+aesgcm.TagSize+63)&^63)
	for _, c := range s.cleanup {
		if _, _, err := s.sys.Driver.Use(0, c.addr, c.size); err != nil {
			s.violate("drain: USE(%#x,%d) after disarm: %v", c.addr, c.size, err)
		}
		wlen := (c.size + 63) &^ 63 // stays within the chunk's pages
		if _, err := s.sys.Driver.WriteBuffer(0, c.addr, zeros[:wlen]); err != nil {
			s.violate("drain: rewrite(%#x,%d): %v", c.addr, wlen, err)
		}
		if _, err := s.sys.Hier.Flush(c.addr, wlen); err != nil {
			s.violate("drain: flush(%#x,%d): %v", c.addr, wlen, err)
		}
	}
	dev := s.sys.Dev
	if free := dev.ScratchpadFreePages(); free != dc.ScratchpadPages {
		s.violate("conservation: %d/%d scratchpad pages free after drain", free, dc.ScratchpadPages)
	}
	if free := dev.ConfigFreePages(); free != dc.ConfigPages {
		s.violate("conservation: %d/%d config pages free after drain", free, dc.ConfigPages)
	}
	if n := dev.TranslationCount(); n != 0 {
		s.violate("conservation: %d translation entries leaked", n)
	}
	if n := dev.InFlightRecords(); n != 0 {
		s.violate("conservation: %d records still in flight", n)
	}
	if n := s.sys.Engine.Pending(); n != 0 {
		s.violate("engine: %d events leaked", n)
	}
	if n := psys.Engine.Pending(); n != 0 {
		s.violate("engine: %d events leaked on plain-DIMM system", n)
	}

	rep.Consults, rep.Fired = inj.Counts()
	rep.PrimaryOps = s.off.Degraded.PrimaryOps
	rep.FallbackOps = s.off.Degraded.FallbackOps
	rep.Trace = inj.TraceString()
	return rep, nil
}

func (s *scenario) violate(format string, args ...interface{}) {
	s.rep.Violations = append(s.rep.Violations, fmt.Sprintf(format, args...))
}

// opFailed classifies an operation failure (typed degradable errors are
// tolerated, anything else is a violation) and renews the affected
// connection so later operations start from known sequence state.
func (s *scenario) opFailed(label string, err error, renew func() error) error {
	if tolerable(err) {
		s.rep.Tolerated++
	} else {
		s.violate("%s: non-degradable error: %v", label, err)
	}
	return renew()
}

func (s *scenario) newTLSPair() error {
	id := s.nextID
	s.nextID++
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

func (s *scenario) newComp() error {
	id := s.nextID
	s.nextID++
	conn, err := s.off.NewConn(offload.Compression, id, compMsg)
	if err != nil {
		return err
	}
	s.comp = conn
	return nil
}

// payload returns a deterministic slice of the corpus.
func (s *scenario) payload(n int) []byte {
	off := s.rng.Intn(len(s.base) - n)
	return s.base[off : off+n]
}

// opTLSTX encrypts a message through Process and verifies every record
// decrypts back to the staged payload with the mirrored IV sequence.
func (s *scenario) opTLSTX() error {
	l := offload.LayoutFor(offload.TLS)
	n := 1 + s.rng.Intn(tlsMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k, cn := range chunks {
		s.cleanup = append(s.cleanup, chunkRef{s.tls.Dst + uint64(k*l.DstStride), cn + aesgcm.TagSize})
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
		pt, oerr := g.Open(nil, iv, out, tlsAAD(cn))
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
func (s *scenario) opTLSRX() error {
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
		sealed, err := g.Seal(nil, s.tlsShadow.NextIV(), pt, tlsAAD(cn))
		if err != nil {
			return err
		}
		records = append(records, sealed)
		lens = append(lens, cn)
		want = append(want, pt...)
		s.cleanup = append(s.cleanup, chunkRef{s.tls.Dst + uint64(k*l.DstStride), cn + aesgcm.TagSize})
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
func (s *scenario) opCompTX() error {
	l := offload.LayoutFor(offload.Compression)
	n := 1 + s.rng.Intn(compMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k := range chunks {
		s.cleanup = append(s.cleanup, chunkRef{s.comp.Dst + uint64(k*l.DstStride), core.PageSize})
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
func (s *scenario) opCompRX() error {
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
		s.cleanup = append(s.cleanup, chunkRef{s.comp.Dst + uint64(k*l.DstStride), core.PageSize})
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
func (s *scenario) plainDIMMPhase() (*sim.System, error) {
	psys, err := sim.NewSystem(sim.SystemConfig{
		LLCBytes: 1 << 20,
		LLCWays:  4,
		Faults:   s.inj,
	})
	if err != nil {
		return nil, err
	}
	data := s.payload(2 * dram.PageSize)
	if _, err := psys.WriteBytes(0, 0, data); err != nil {
		if tolerable(err) {
			s.rep.Tolerated++
			return psys, nil
		}
		s.violate("plain-dimm write: %v", err)
		return psys, nil
	}
	if _, err := psys.Hier.Flush(0, len(data)); err != nil {
		if tolerable(err) {
			s.rep.Tolerated++
			return psys, nil
		}
		s.violate("plain-dimm flush: %v", err)
		return psys, nil
	}
	got, _, err := psys.ReadBytes(0, 0, len(data))
	if err != nil {
		if tolerable(err) {
			s.rep.Tolerated++
			return psys, nil
		}
		s.violate("plain-dimm read: %v", err)
		return psys, nil
	}
	if !bytes.Equal(got, data) {
		s.violate("plain-dimm: data corrupted under ALERT_N injection")
	}
	return psys, nil
}
