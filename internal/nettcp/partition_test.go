package nettcp

import (
	"errors"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// flapTransfer runs a transfer over a data link with one deterministic
// outage window [phase, phase+down) and a clean ack link.
func flapTransfer(t *testing.T, cfg Config, gbps float64, phase, down int64, total int64) (*Sender, *Receiver, *netsim.Link) {
	t.Helper()
	eng := sim.NewEngine()
	data := netsim.NewLink(eng, netsim.LinkConfig{
		Gbps: gbps, PropPs: 6 * sim.Us, Seed: 1,
		// One window only: a period longer than any deadline below.
		FlapEveryPs: 600 * sim.S, FlapDownPs: down, FlapPhasePs: phase,
	})
	ack := netsim.NewLink(eng, netsim.LinkConfig{Gbps: gbps, PropPs: 6 * sim.Us, Seed: 2})
	s, r, err := NewTransfer(eng, data, ack, cfg, zeroHook{}, total)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(60 * sim.S)
	return s, r, data
}

// TestFlapMidHandshake partitions the data path from t=0: the entire
// initial window and the first RTO retransmissions are eaten, so the
// connection must bootstrap purely on timeout recovery once the link
// heals — the cold-start side of a node partition. Regression for the
// replication fabric, which opens streams into possibly-partitioned
// peers.
func TestFlapMidHandshake(t *testing.T) {
	const total = 2 << 20
	s, r, data := flapTransfer(t, DefaultConfig(), 100, 0, 5*sim.Ms, total)
	if !s.Done() {
		t.Fatalf("transfer never completed after the handshake-window partition (recv %d)", r.Received)
	}
	if r.Received != total {
		t.Fatalf("received %d, want %d", r.Received, total)
	}
	if data.FlapDropped == 0 {
		t.Fatal("outage dropped nothing: flap not exercised")
	}
	// With a 2ms RTO against a 5ms outage, at least two timeout-driven
	// retransmissions are themselves eaten before one survives.
	if s.Timeouts < 2 {
		t.Fatalf("timeouts = %d, want >= 2 (RTO retransmits inside the outage must be re-lost)", s.Timeouts)
	}
}

// TestFlapMidStream partitions the data path while the pipe is full:
// everything in flight at the cut is lost at once, and the sender must
// resynchronize from sndUna when the link heals without losing or
// duplicating a byte at the receiver.
func TestFlapMidStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTOPs = 500 * sim.Us
	const total = 4 << 20
	// 10 Gbps stretches the transfer to ~3.4ms; the 500us outage at 1ms
	// lands mid-stream, after slow start has filled the window.
	s, r, data := flapTransfer(t, cfg, 10, sim.Ms, 500*sim.Us, total)
	if !s.Done() {
		t.Fatalf("transfer never completed after the mid-stream partition (recv %d)", r.Received)
	}
	if r.Received != total {
		t.Fatalf("received %d, want %d", r.Received, total)
	}
	if data.FlapDropped == 0 {
		t.Fatal("outage dropped nothing: the flap window missed the stream")
	}
	if s.Retransmits == 0 {
		t.Fatal("no retransmissions across the outage")
	}
	// The phase honored the healthy prefix: more packets were delivered
	// than dropped, so the cut really was mid-stream, not at start.
	if data.Delivered <= data.FlapDropped {
		t.Fatalf("delivered %d <= flap-dropped %d: outage consumed the whole stream", data.Delivered, data.FlapDropped)
	}
}

// TestNewTransferTypedErrors pins the constructor's failure modes —
// before these were typed, a zero-byte transfer hung silently (Done
// never set) and a nil link or hook deferred to a panic mid-run. A
// non-positive MSS or RTO is an error too, not a silent second set of
// defaults (1460 B / 5 ms) that disagrees with DefaultConfig's 2 ms RTO.
func TestNewTransferTypedErrors(t *testing.T) {
	eng := sim.NewEngine()
	data := netsim.NewLink(eng, netsim.LinkConfig{Seed: 1})
	ack := netsim.NewLink(eng, netsim.LinkConfig{Seed: 2})
	def := DefaultConfig()
	noMSS, negRTO := def, def
	noMSS.MSS = 0
	negRTO.RTOPs = -sim.Ms
	for _, c := range []struct {
		name  string
		data  *netsim.Link
		hook  ULPHook
		cfg   Config
		total int64
		want  error
	}{
		{"zero payload", data, zeroHook{}, def, 0, ErrNoPayload},
		{"negative payload", data, zeroHook{}, def, -5, ErrNoPayload},
		{"nil data link", nil, zeroHook{}, def, 1 << 20, ErrNilLink},
		{"nil hook", data, nil, def, 1 << 20, ErrNilHook},
		{"zero MSS", data, zeroHook{}, noMSS, 1 << 20, ErrBadConfig},
		{"negative RTO", data, zeroHook{}, negRTO, 1 << 20, ErrBadConfig},
		{"zero config", data, zeroHook{}, Config{}, 1 << 20, ErrBadConfig},
	} {
		_, _, err := NewTransfer(eng, c.data, ack, c.cfg, c.hook, c.total)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, _, err := NewTransfer(eng, data, ack, DefaultConfig(), zeroHook{}, 1<<20); err != nil {
		t.Fatalf("valid transfer rejected: %v", err)
	}
}
