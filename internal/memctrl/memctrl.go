// Package memctrl models a DDR4 memory controller for one channel: bank
// state tracking with open-page policy, activate/precharge scheduling,
// CAS-to-CAS and bus-turnaround spacing, a batched write-pending queue,
// and ALERT_N retry handling.
//
// Three behaviours matter to the paper and are modelled explicitly:
//
//  1. Write batching: stores drain to the DIMM in batches, so the first
//     wrCAS of a destination buffer trails the first rdCAS of its source
//     buffer by well over a microsecond (§IV-D) — the slack that lets
//     the DSA finish a cacheline before its result is needed.
//  2. ALERT_N: when the DIMM (SmartDIMM, S13 in Fig. 6) signals that a
//     rdCAS hit a cacheline whose computation is pending, the controller
//     retries the read under capped exponential backoff, and surfaces
//     ErrAlertRetryExhausted once the retry budget is spent.
//  3. No store-to-load forwarding: a read that matches a queued write
//     forces a drain instead of forwarding. For SmartDIMM destination
//     buffers forwarding would return the untransformed copy; draining
//     preserves the paper's semantics (flush + read observes the DIMM).
package memctrl

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ErrAlertRetryExhausted is returned (wrapped, with the address) when a
// read burns through its whole ALERT_N/CRC retry budget without the DIMM
// ever answering cleanly. Callers match it with errors.Is.
var ErrAlertRetryExhausted = errors.New("memctrl: ALERT_N retry budget exhausted")

// Request directions for statistics.
const (
	dirNone = iota
	dirRead
	dirWrite
)

// The controller's write-pending queue and ALERT_N retry policy.
const (
	// writeQueueDepth is the write-pending-queue capacity; the queue
	// drains when drainThreshold writes are pending (high-water-mark
	// policy). A 64-entry WPQ draining at 48 is in the range of
	// Skylake-SP documentation.
	writeQueueDepth = 64
	drainThreshold  = 48
	// alertRetryCycles is the backoff base: retry k of a rdCAS answered
	// with ALERT_N (or failing CRC) waits min(alertRetryCycles<<k,
	// alertBackoffCapCycles) cycles before reissuing.
	alertRetryCycles      = 100
	alertBackoffCapCycles = 8 * alertRetryCycles
	// maxAlertRetries bounds retries before giving up with
	// ErrAlertRetryExhausted.
	maxAlertRetries = 64
)

// CommandRoundTripPs returns the controller<->device command round trip
// in picoseconds at timing t: an activate, the CAS latency, and the
// ALERT_N retry base — the shortest interval across which the memory
// domain can react to a command. The sharded engine's conservative
// lookahead derivation uses it as a floor: no cross-shard interaction
// in this model resolves faster than a command/ALERT exchange on the
// DRAM bus.
func CommandRoundTripPs(t dram.Timing) int64 {
	cycles := int64(t.TRCD+t.CL) + alertRetryCycles
	return cycles * t.TCKps
}

// Stats aggregates controller activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	RowHits     uint64
	RowMisses   uint64 // closed bank (ACT only)
	RowConflict uint64 // wrong row open (PRE+ACT)
	Alerts      uint64
	CRCRetries  uint64 // injected write-CRC / read-CRC faults retried
	Drains      uint64 // write-queue drain events
	Turnarounds uint64 // bus direction switches
	BusyCycles  int64  // data-bus occupied cycles
}

type bankState struct {
	openRow    int32
	readyCycle int64 // earliest next command issue for this bank
	actCycle   int64 // time of last ACT, for tRAS
}

// pendingWrite is one write-queue entry; its line address is the entry
// at the same index of Controller.wqAddr.
type pendingWrite struct {
	core int
	data [dram.CachelineSize]byte
}

// Controller drives one dram.Module (one channel).
type Controller struct {
	timing dram.Timing
	mod    dram.Module
	mapper *dram.Mapper // mod's, fetched once
	banks  []bankState
	// The run cursor: cur is the decoded command of the last line the
	// controller decoded, curBank its bank index, and curRow that
	// line's address shifted past its column bits (noRow before the
	// first). A line with the same curRow shares rank, bank group, bank
	// and row, so the next CAS of a run sets only the column, in place.
	cur      dram.Command
	curBank  int
	curRow   uint64
	rowShift uint // log2 of the bytes of one row
	colMask  int  // columns per row - 1
	// The write-pending queue. The line addresses sit in their own
	// dense array, so the scan every Read and Write makes for its line
	// reads 8 bytes per entry, not a whole entry.
	wqAddr   []uint64
	wq       []pendingWrite
	now      int64 // controller clock, DRAM cycles
	busDir   int
	busReady int64
	st       Stats
	// Trace, when non-nil, records every CAS issued on the channel.
	Trace *stats.CASTrace
	// Meter, when non-nil, accounts data-bus bytes for bandwidth stats.
	Meter *stats.BandwidthMeter
	// Faults, when non-nil, injects CRC errors at site "memctrl.crc":
	// a fired consultation makes the rdCAS data transfer fail its CRC
	// check and retry through the same backoff path as ALERT_N.
	Faults *fault.Injector
	// Tracer, when non-nil, records write-queue drain spans and
	// ALERT_N/CRC-retry instants on TraceTrack. Per-CAS paths are never
	// instrumented; the CAS view comes from Trace via ExportTo.
	Tracer     *telemetry.Tracer
	TraceTrack telemetry.TrackID
}

// New builds a controller with DRAM timing t over the module.
func New(t dram.Timing, mod dram.Module) *Controller {
	m := mod.Mapper()
	cols := m.Geometry().ColsPerRow
	banks := make([]bankState, m.Geometry().TotalBanks())
	for i := range banks {
		banks[i].openRow = -1
	}
	return &Controller{
		timing: t, mod: mod, mapper: m, banks: banks,
		curRow:   noRow,
		rowShift: uint(bits.TrailingZeros(uint(cols * dram.CachelineSize))),
		colMask:  cols - 1,
		wqAddr:   make([]uint64, 0, drainThreshold),
		wq:       make([]pendingWrite, 0, drainThreshold),
	}
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.st }

// Collect implements telemetry.Collector.
func (s Stats) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "reads", Value: float64(s.Reads)})
	emit(telemetry.Sample{Name: "writes", Value: float64(s.Writes)})
	emit(telemetry.Sample{Name: "row_hits", Value: float64(s.RowHits)})
	emit(telemetry.Sample{Name: "row_misses", Value: float64(s.RowMisses)})
	emit(telemetry.Sample{Name: "row_conflicts", Value: float64(s.RowConflict)})
	emit(telemetry.Sample{Name: "alerts", Value: float64(s.Alerts)})
	emit(telemetry.Sample{Name: "crc_retries", Value: float64(s.CRCRetries)})
	emit(telemetry.Sample{Name: "drains", Value: float64(s.Drains)})
	emit(telemetry.Sample{Name: "turnarounds", Value: float64(s.Turnarounds)})
	emit(telemetry.Sample{Name: "busy_cycles", Value: float64(s.BusyCycles)})
}

// Now returns the controller clock in DRAM cycles.
func (c *Controller) Now() int64 { return c.now }

// CycleToPs converts controller cycles to picoseconds.
func (c *Controller) CycleToPs(cyc int64) int64 { return cyc * c.timing.TCKps }

// AdvanceTo moves the controller clock forward (never backward).
func (c *Controller) AdvanceTo(cycle int64) {
	if cycle > c.now {
		c.now = cycle
	}
}

// WriteQueuePressure returns the write-pending-queue occupancy as a
// fraction of its capacity, a cheap congestion signal the fleet's
// least-loaded placement policy folds into its per-device score.
func (c *Controller) WriteQueuePressure() float64 {
	return float64(len(c.wq)) / writeQueueDepth
}

// cas returns *cmd, the run cursor, by value, field by field. A plain
// *cmd copies the 56-byte command in 16-byte moves, and the move over
// Col and Core loads across the two 8-byte stores that just set them: a
// store-forwarding stall on every CAS.
func cas(cmd *dram.Command) dram.Command {
	return dram.Command{Kind: cmd.Kind, Rank: cmd.Rank, BG: cmd.BG, BA: cmd.BA,
		Row: cmd.Row, Col: cmd.Col, Core: cmd.Core}
}

// noRow is the run cursor's row before the first decode: no line
// address shifts to it.
const noRow = ^uint64(0)

// decode points the run cursor at line, a line address, and returns
// it for the caller to set Kind and Core in place. A line in the
// cursor's row sets only the column; a line of another row decodes
// once. On error the cursor keeps its row.
func (c *Controller) decode(line uint64) (*dram.Command, error) {
	if row := line >> c.rowShift; row != c.curRow {
		cmd, err := c.mapper.Decode(line)
		if err != nil {
			return nil, err
		}
		c.cur, c.curRow = cmd, row
		c.curBank = c.mapper.BankIndex(cmd.Rank, cmd.BG, cmd.BA)
		return &c.cur, nil
	}
	c.cur.Col = int(line/dram.CachelineSize) & c.colMask
	return &c.cur, nil
}

// prepareBank issues PRE/ACT as needed on b, the bank cmd addresses, and
// returns the cycle at which a CAS to (cmd) may issue, updating b.
func (c *Controller) prepareBank(cmd *dram.Command, b *bankState) (int64, error) {
	t := &c.timing
	at := c.now
	if b.readyCycle > at {
		at = b.readyCycle
	}
	switch {
	case b.openRow == int32(cmd.Row):
		c.st.RowHits++
	case b.openRow == -1:
		c.st.RowMisses++
		act := *cmd
		act.Kind = dram.CmdACT
		if _, err := c.mod.HandleCommand(at, act, nil, nil); err != nil {
			return 0, err
		}
		b.actCycle = at
		at += int64(t.TRCD)
		b.openRow = int32(cmd.Row)
	default:
		c.st.RowConflict++
		// Respect tRAS before precharging.
		if min := b.actCycle + int64(t.TRAS); at < min {
			at = min
		}
		pre := *cmd
		pre.Kind = dram.CmdPRE
		if _, err := c.mod.HandleCommand(at, pre, nil, nil); err != nil {
			return 0, err
		}
		at += int64(t.TRP)
		act := *cmd
		act.Kind = dram.CmdACT
		if _, err := c.mod.HandleCommand(at, act, nil, nil); err != nil {
			return 0, err
		}
		b.actCycle = at
		at += int64(t.TRCD)
		b.openRow = int32(cmd.Row)
	}
	return at, nil
}

// reserveBus accounts bus occupancy and turnaround, returning the CAS
// issue cycle for a burst starting no earlier than at.
func (c *Controller) reserveBus(at int64, dir int) int64 {
	t := &c.timing
	if at < c.busReady {
		at = c.busReady
	}
	if c.busDir != dirNone && c.busDir != dir {
		c.st.Turnarounds++
		if dir == dirWrite {
			at += int64(t.TRTW)
		} else {
			at += int64(t.TWTR)
		}
	}
	c.busDir = dir
	c.busReady = at + int64(t.TCCD)
	c.st.BusyCycles += int64(t.TBL)
	return at
}

// Read fetches the 64-byte cacheline at addr. It returns the cycle at
// which data is available. A queued write to the same line forces a
// drain first (no forwarding; see package comment).
func (c *Controller) Read(addr uint64, core int, dst []byte) (int64, error) {
	line := addr &^ (dram.CachelineSize - 1)
	if slices.Contains(c.wqAddr, line) {
		if _, err := c.DrainWrites(); err != nil {
			return 0, err
		}
	}
	cmd, err := c.decode(line)
	if err != nil {
		return 0, err
	}
	cmd.Kind = dram.CmdRd
	cmd.Core = core

	b := &c.banks[c.curBank]
	at, err := c.prepareBank(cmd, b)
	if err != nil {
		return 0, err
	}
	at = c.reserveBus(at, dirRead)

	t := &c.timing
	for attempt := 0; ; attempt++ {
		alert, err := c.mod.HandleCommand(at, cas(cmd), nil, dst)
		if err != nil {
			return 0, err
		}
		c.recordCAS(at, stats.RdCAS, line, core)
		if !alert && c.Faults.Fire("memctrl.crc", at) {
			// Injected CRC failure on the data burst: the line must be
			// refetched, through the same backoff schedule as ALERT_N.
			c.st.CRCRetries++
			alert = true
		}
		if !alert {
			done := at + int64(t.CL) + int64(t.TBL)
			c.bankDone(b, dram.CmdRd, at)
			c.st.Reads++
			if c.Meter != nil {
				c.Meter.Record(c.CycleToPs(done), dram.CachelineSize)
			}
			c.now = maxI64(c.now, at)
			return done, nil
		}
		c.st.Alerts++
		c.Tracer.Instant(c.TraceTrack, "ALERT_N", c.CycleToPs(at))
		if attempt >= maxAlertRetries {
			return 0, fmt.Errorf("%w: %#x after %d retries",
				ErrAlertRetryExhausted, addr, attempt)
		}
		at += c.backoffCycles(attempt)
	}
}

// backoffCycles returns the wait before retry number attempt (0-based):
// base<<attempt, capped.
func (c *Controller) backoffCycles(attempt int) int64 {
	d := int64(alertRetryCycles)
	cap := int64(alertBackoffCapCycles)
	if attempt > 62 {
		return cap
	}
	d <<= uint(attempt)
	if d > cap || d <= 0 {
		d = cap
	}
	return d
}

// Write enqueues a 64-byte store. The queue drains at the high-water
// mark. The returned cycle is when the store was accepted (posted).
func (c *Controller) Write(addr uint64, core int, src []byte) (int64, error) {
	line := addr &^ (dram.CachelineSize - 1)
	if len(src) < dram.CachelineSize {
		return 0, fmt.Errorf("memctrl: short write buffer")
	}
	// Coalesce with an existing queued write to the same line.
	if i := slices.Index(c.wqAddr, line); i >= 0 {
		copy(c.wq[i].data[:], src)
		return c.now, nil
	}
	c.wqAddr = append(c.wqAddr, line)
	c.wq = append(c.wq, pendingWrite{core: core})
	copy(c.wq[len(c.wq)-1].data[:], src)
	if len(c.wq) >= drainThreshold {
		if _, err := c.DrainWrites(); err != nil {
			return 0, err
		}
	}
	return c.now, nil
}

// DrainWrites issues every queued write to the DIMM, returning the cycle
// at which the last burst completes.
func (c *Controller) DrainWrites() (int64, error) {
	if len(c.wq) == 0 {
		return c.now, nil
	}
	c.st.Drains++
	startCyc := c.now
	t := &c.timing
	var last int64
	for i := range c.wq {
		// Index, not range: a ranged copy of the 64-byte entry would
		// escape to the heap through HandleCommand's data slice.
		w, addr := &c.wq[i], c.wqAddr[i]
		// On any error, drop the writes already issued plus the failing
		// one so the queue is not poisoned: a later drain must not
		// re-issue half the batch or retry a write the DIMM rejected.
		cmd, err := c.decode(addr)
		if err != nil {
			c.dropDrained(i)
			return 0, err
		}
		cmd.Kind = dram.CmdWr
		cmd.Core = w.core
		b := &c.banks[c.curBank]
		at, err := c.prepareBank(cmd, b)
		if err != nil {
			c.dropDrained(i)
			return 0, err
		}
		at = c.reserveBus(at, dirWrite)
		if _, err := c.mod.HandleCommand(at, cas(cmd), w.data[:], nil); err != nil {
			c.dropDrained(i)
			return 0, err
		}
		c.recordCAS(at, stats.WrCAS, addr, w.core)
		done := at + int64(t.CWL) + int64(t.TBL)
		c.bankDone(b, dram.CmdWr, at)
		c.st.Writes++
		if c.Meter != nil {
			c.Meter.Record(c.CycleToPs(done), dram.CachelineSize)
		}
		if done > last {
			last = done
		}
		c.now = maxI64(c.now, at)
	}
	c.wq, c.wqAddr = c.wq[:0], c.wqAddr[:0]
	if c.Tracer != nil && last > startCyc {
		c.Tracer.Span(c.TraceTrack, "drain", c.CycleToPs(startCyc), c.CycleToPs(last-startCyc))
	}
	return last, nil
}

// dropDrained removes queue entries 0..i (issued or failed) after a
// drain aborts mid-batch, keeping the not-yet-attempted tail.
func (c *Controller) dropDrained(i int) {
	c.wq = c.wq[:copy(c.wq, c.wq[i+1:])]
	c.wqAddr = c.wqAddr[:copy(c.wqAddr, c.wqAddr[i+1:])]
}

// bankDone updates the availability of b after a CAS of kind at cycle
// at.
func (c *Controller) bankDone(b *bankState, kind dram.CommandKind, at int64) {
	next := at + int64(c.timing.TCCD)
	if kind == dram.CmdWr {
		next = at + int64(c.timing.TWR)
	}
	if next > b.readyCycle {
		b.readyCycle = next
	}
}

func (c *Controller) recordCAS(at int64, kind stats.CASKind, addr uint64, core int) {
	if c.Trace != nil {
		c.Trace.Record(stats.CASEvent{
			AtPs: c.CycleToPs(at), Kind: kind, PhysAddr: addr, Core: core,
		})
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
