// Package nettcp is a Reno-style TCP model sufficient for the paper's
// Fig. 2 experiment: a bulk sender streaming TLS records over a lossy
// link, with slow start, congestion avoidance, fast retransmit on three
// duplicate ACKs, and retransmission timeouts. The ULP hook charges
// per-record processing time at the sender (CPU encryption) and a
// resynchronization penalty per retransmission (autonomous SmartNIC
// offload, Pismenny et al.): exactly the two mechanisms whose balance
// produces the Fig. 2 cliff.
package nettcp

import (
	"errors"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Typed construction errors. Replication rides this path (the cluster
// tier's inter-node fabric reuses the same link model), so a miswired
// transfer must fail loudly at construction instead of hanging
// silently: a zero-byte transfer never sets Done, a nil link or hook
// panics only once the first record boundary or retransmission hits.
var (
	ErrNoPayload = errors.New("nettcp: transfer needs a positive byte count")
	ErrNilLink   = errors.New("nettcp: transfer needs both a data and an ack link")
	ErrNilHook   = errors.New("nettcp: transfer needs a ULP hook (use a zero-cost hook for plain TCP)")
	ErrBadConfig = errors.New("nettcp: transfer needs a positive MSS and RTO (start from DefaultConfig)")
)

// ULPHook charges ULP costs to the sender.
type ULPHook interface {
	// RecordCost returns the sender-side stall before a fresh record of
	// n payload bytes may start transmitting (e.g. CPU encryption time).
	RecordCost(n int) int64
	// RetransmitCost returns the stall charged when bytes are
	// retransmitted (SmartNIC resync + CPU fallback; zero for CPU TLS).
	RetransmitCost(n int) int64
}

// CPUTLSHook models TLS fully on the CPU: per-record AES-NI time,
// amortized over the server's worker threads (the paper's testbed uses
// cpuTLSCores threads, which pipelines encryption of different records
// behind transmission), and free retransmissions (the encrypted bytes
// are simply resent).
type CPUTLSHook struct {
	P sim.Params
}

// cpuTLSCores is the testbed's worker-thread count encrypting in
// parallel.
const cpuTLSCores = 10

// RecordCost implements ULPHook.
func (h CPUTLSHook) RecordCost(n int) int64 {
	return h.P.AESGCMComputePs(n) / cpuTLSCores
}

// RetransmitCost implements ULPHook.
func (h CPUTLSHook) RetransmitCost(int) int64 { return 0 }

// NICTLSHook models autonomous SmartNIC offload: records cost almost
// nothing on the CPU, but a retransmission desynchronizes the inline
// engine — the driver resynchronizes with the firmware while the flow
// falls back to software encryption for the records in flight during
// the resync window (Pismenny et al. §5: resynchronization cost grows
// with load; the engine misses every record it cannot match).
type NICTLSHook struct {
	P sim.Params
	// RecordLen is the TLS record size, over which fallback encryption
	// is charged.
	RecordLen int
	// FallbackRecords is how many subsequent records are encrypted in
	// software while one resync completes.
	FallbackRecords int
	Resyncs         uint64
	// FallbackEncrypts counts records encrypted in software inside
	// resync windows — the graceful-degradation cost the offload pays
	// under loss (each resync forces up to FallbackRecords of them).
	FallbackEncrypts uint64
	fallbackLeft     int
}

// RecordCost implements ULPHook.
func (h *NICTLSHook) RecordCost(n int) int64 {
	if h.fallbackLeft > 0 {
		// Out of sync: this record is encrypted on the CPU, serially on
		// this flow's thread.
		h.fallbackLeft--
		h.FallbackEncrypts++
		return h.P.AESGCMComputePs(n)
	}
	return h.P.NICCryptoSetupNs * sim.Ns
}

// RetransmitCost implements ULPHook.
func (h *NICTLSHook) RetransmitCost(int) int64 {
	h.Resyncs++
	h.FallbackEncrypts++ // the retransmitted record itself
	fb := h.FallbackRecords
	if fb <= 0 {
		fb = 64
	}
	h.fallbackLeft = fb
	return h.P.NICResyncUs*sim.Us + h.P.AESGCMComputePs(h.RecordLen)
}

// Config tunes the TCP model. Both fields must be positive.
type Config struct {
	MSS   int
	RTOPs int64
}

// DefaultConfig mirrors the testbed: 1460B MSS and a 2 ms RTO.
func DefaultConfig() Config {
	return Config{MSS: 1460, RTOPs: 2 * sim.Ms}
}

// The stream's fixed shape on the testbed's 100GbE path.
const (
	initCwndPkts = 10    // initial congestion window, in segments
	recordLen    = 16384 // TLS record size carried by the stream
	headerBytes  = 40    // per-packet TCP/IP header overhead on the wire
	// maxInFlightPkts caps cwnd growth (the receiver window).
	maxInFlightPkts = 1024
)

// Sender is the bulk TCP sender with a ULP hook.
type Sender struct {
	cfg  Config
	eng  *sim.Engine
	data *netsim.Link // sender -> receiver
	hook ULPHook

	totalBytes  int64 // bytes to send
	nextSeq     int64 // next fresh byte to send
	sndUna      int64 // oldest unacked byte
	cwnd        float64
	ssthresh    float64
	dupAcks     int
	recovering  bool
	recoverSeq  int64
	ulpReadyPs  int64 // sender stalled on ULP processing until here
	paidThrough int64 // record bytes whose ULP cost is already charged
	rtoCancel   sim.Cancel
	done        bool

	// Stats
	Retransmits    uint64
	Timeouts       uint64
	FastRecoveries uint64
	DonePs         int64

	// Tracer, when non-nil, records loss-recovery instants (retransmit,
	// rto, fast-recovery) on TraceTrack. Set after NewTransfer.
	Tracer     *telemetry.Tracer
	TraceTrack telemetry.TrackID
}

// Receiver acknowledges cumulatively.
type Receiver struct {
	eng     *sim.Engine
	ack     *netsim.Link // receiver -> sender
	rcvNext int64
	ooo     map[int64]int // out-of-order segments: seq -> len
	// Received counts in-order payload bytes delivered to the app.
	Received int64
}

// NewTransfer wires a sender and receiver over the given links and
// starts transmitting total bytes. Call eng.Run (or RunUntil) after.
func NewTransfer(eng *sim.Engine, data, ack *netsim.Link, cfg Config, hook ULPHook, total int64) (*Sender, *Receiver, error) {
	if total <= 0 {
		return nil, nil, ErrNoPayload
	}
	if data == nil || ack == nil {
		return nil, nil, ErrNilLink
	}
	if hook == nil {
		return nil, nil, ErrNilHook
	}
	if cfg.MSS <= 0 || cfg.RTOPs <= 0 {
		return nil, nil, ErrBadConfig
	}
	s := &Sender{
		cfg: cfg, eng: eng, data: data, hook: hook,
		totalBytes: total,
		cwnd:       float64(initCwndPkts * cfg.MSS),
		ssthresh:   float64(maxInFlightPkts * cfg.MSS),
	}
	r := &Receiver{eng: eng, ack: ack, ooo: make(map[int64]int)}
	data.Deliver = r.onData
	ack.Deliver = s.onAck
	eng.At(eng.Now(), s.pump)
	return s, r, nil
}

// Done reports whether every byte was acknowledged.
func (s *Sender) Done() bool { return s.done }

// inFlight returns unacknowledged bytes.
func (s *Sender) inFlight() int64 { return s.nextSeq - s.sndUna }

// pump sends as much fresh data as cwnd allows, charging ULP costs at
// record boundaries.
func (s *Sender) pump() {
	if s.done {
		return
	}
	now := s.eng.Now()
	if now < s.ulpReadyPs {
		s.eng.At(s.ulpReadyPs, s.pump)
		return
	}
	window := int64(s.cwnd)
	if max := int64(maxInFlightPkts * s.cfg.MSS); window > max {
		window = max
	}
	for s.nextSeq < s.totalBytes && s.inFlight() < window {
		// Record boundary: charge ULP processing before these bytes
		// exist in encrypted form (once per record).
		if s.nextSeq >= s.paidThrough {
			cost := s.hook.RecordCost(recordLen)
			s.paidThrough = s.nextSeq + recordLen
			if cost > 0 {
				s.ulpReadyPs = s.eng.Now() + cost
				s.eng.At(s.ulpReadyPs, s.pump)
				s.armRTO()
				return
			}
		}
		n := int(s.totalBytes - s.nextSeq)
		if n > s.cfg.MSS {
			n = s.cfg.MSS
		}
		s.data.Send(netsim.Packet{Seq: s.nextSeq, Len: n, Wire: n + headerBytes})
		s.nextSeq += int64(n)
	}
	s.armRTO()
}

// armRTO (re)schedules the retransmission timer.
func (s *Sender) armRTO() {
	s.rtoCancel.Cancel()
	if s.done || s.inFlight() == 0 {
		return
	}
	s.rtoCancel = s.eng.After(s.cfg.RTOPs, s.onRTO)
}

// onRTO fires after RTOPs without progress: classic timeout response.
func (s *Sender) onRTO() {
	if s.done || s.inFlight() == 0 {
		return
	}
	s.Timeouts++
	s.Tracer.Instant(s.TraceTrack, "rto", s.eng.Now())
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < float64(2*s.cfg.MSS) {
		s.ssthresh = float64(2 * s.cfg.MSS)
	}
	s.cwnd = float64(s.cfg.MSS)
	s.recovering = false
	s.dupAcks = 0
	s.retransmit(s.sndUna)
	s.armRTO()
}

// retransmit resends one MSS at seq, charging the ULP retransmit cost.
func (s *Sender) retransmit(seq int64) {
	s.Retransmits++
	s.Tracer.Instant(s.TraceTrack, "retransmit", s.eng.Now())
	n := int(s.totalBytes - seq)
	if n > s.cfg.MSS {
		n = s.cfg.MSS
	}
	if n <= 0 {
		return
	}
	if cost := s.hook.RetransmitCost(n); cost > 0 {
		s.ulpReadyPs = s.eng.Now() + cost
		s.eng.At(s.ulpReadyPs, func() {
			s.data.Send(netsim.Packet{Seq: seq, Len: n, Wire: n + headerBytes, Flags: netsim.FlagRetransmit})
		})
		return
	}
	s.data.Send(netsim.Packet{Seq: seq, Len: n, Wire: n + headerBytes, Flags: netsim.FlagRetransmit})
}

// onAck processes a cumulative acknowledgment.
func (s *Sender) onAck(p netsim.Packet) {
	if s.done {
		return
	}
	switch {
	case p.Ack > s.sndUna:
		acked := p.Ack - s.sndUna
		s.sndUna = p.Ack
		s.dupAcks = 0
		if s.recovering && p.Ack >= s.recoverSeq {
			s.recovering = false
			s.cwnd = s.ssthresh
		}
		mss := float64(s.cfg.MSS)
		if s.cwnd < s.ssthresh {
			s.cwnd += float64(acked) // slow start
		} else {
			s.cwnd += mss * mss / s.cwnd // congestion avoidance
		}
		if s.sndUna >= s.totalBytes {
			s.done = true
			s.DonePs = s.eng.Now()
			s.rtoCancel.Cancel()
			return
		}
		s.armRTO()
		s.pump()
	case p.Ack == s.sndUna:
		s.dupAcks++
		if s.dupAcks == 3 && !s.recovering {
			// Fast retransmit + recovery.
			s.FastRecoveries++
			s.Tracer.Instant(s.TraceTrack, "fast-recovery", s.eng.Now())
			s.recovering = true
			s.recoverSeq = s.nextSeq
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < float64(2*s.cfg.MSS) {
				s.ssthresh = float64(2 * s.cfg.MSS)
			}
			s.cwnd = s.ssthresh + 3*float64(s.cfg.MSS)
			s.retransmit(s.sndUna)
			s.armRTO()
		}
	}
}

// onData handles an arriving segment at the receiver.
func (r *Receiver) onData(p netsim.Packet) {
	if p.Seq == r.rcvNext {
		r.rcvNext += int64(p.Len)
		r.Received += int64(p.Len)
		// Drain any buffered out-of-order segments.
		for {
			n, ok := r.ooo[r.rcvNext]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNext)
			r.rcvNext += int64(n)
			r.Received += int64(n)
		}
	} else if p.Seq > r.rcvNext {
		r.ooo[p.Seq] = p.Len
	}
	// Cumulative ACK (also the dup-ack generator).
	r.ack.Send(netsim.Packet{Flags: netsim.FlagAck, Ack: r.rcvNext, Wire: 40})
}

// Goodput returns application bytes per second at the receiver given
// the elapsed simulation time.
func (r *Receiver) Goodput(elapsedPs int64) float64 {
	if elapsedPs <= 0 {
		return 0
	}
	return float64(r.Received) / (float64(elapsedPs) * 1e-12)
}
