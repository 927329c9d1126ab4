package memctrl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/stats"
)

func newCtl(t *testing.T) (*Controller, *dram.PlainDIMM) {
	t.Helper()
	d, err := dram.NewPlainDIMM(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return New(dram.DDR4_3200(), d), d
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, _ := newCtl(t)
	want := bytes.Repeat([]byte{0x5A}, 64)
	if _, err := c.Write(0x1000, 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if _, err := c.Read(0x1000, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read did not observe queued write (drain-on-conflict broken)")
	}
	st := c.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Drains != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteCoalescing(t *testing.T) {
	c, _ := newCtl(t)
	c.Write(0x2000, 0, bytes.Repeat([]byte{1}, 64))
	c.Write(0x2000, 0, bytes.Repeat([]byte{2}, 64))
	if len(c.wq) != 1 {
		t.Fatalf("pending = %d, want coalesced 1", len(c.wq))
	}
	got := make([]byte, 64)
	c.Read(0x2000, 0, got)
	if got[0] != 2 {
		t.Fatal("coalesced write lost the newer data")
	}
}

func TestWriteBatching(t *testing.T) {
	c, _ := newCtl(t)
	buf := bytes.Repeat([]byte{7}, 64)
	for i := 0; i < drainThreshold-1; i++ {
		c.Write(uint64(i)*64, 0, buf)
	}
	if c.Stats().Writes != 0 {
		t.Fatal("writes issued before threshold")
	}
	if p := c.WriteQueuePressure(); p != 47.0/64 {
		t.Fatalf("write queue pressure %g, want 47 of a 64-entry WPQ", p)
	}
	c.Write((drainThreshold-1)*64, 0, buf)
	if c.Stats().Writes != drainThreshold || len(c.wq) != 0 {
		t.Fatalf("threshold drain broken: %+v pending=%d", c.Stats(), len(c.wq))
	}
}

func TestRowHitVsConflictTiming(t *testing.T) {
	c, _ := newCtl(t)
	buf := make([]byte, 64)

	// First access to a closed bank: row miss.
	c.Read(0, 0, buf)
	// Same row: hit.
	c.Read(64, 0, buf)
	st := c.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
	// Same bank, different row: conflict. SmallGeometry row stride:
	// cols(128) * bg(4) * ba(4) * ranks(1) * 64B = 512KB.
	done1, _ := c.Read(0, 0, buf)
	done2, err := c.Read(512<<10, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().RowConflict != 1 {
		t.Fatalf("conflict not counted: %+v", c.Stats())
	}
	tm := dram.DDR4_3200()
	if done2-done1 < int64(tm.TRP+tm.TRCD) {
		t.Fatalf("conflict latency %d cycles < tRP+tRCD", done2-done1)
	}
}

func TestReadLatencyIncludesCL(t *testing.T) {
	c, _ := newCtl(t)
	buf := make([]byte, 64)
	done, err := c.Read(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	tm := dram.DDR4_3200()
	want := int64(tm.TRCD + tm.CL + tm.TBL)
	if done < want {
		t.Fatalf("cold read done at %d, want >= %d", done, want)
	}
}

func TestTraceRecordsCAS(t *testing.T) {
	c, _ := newCtl(t)
	tr := &stats.CASTrace{}
	c.Trace = tr
	buf := make([]byte, 64)
	c.Read(0, 3, buf)
	c.Write(64, 4, buf)
	c.DrainWrites()
	if tr.Reads() != 1 || tr.Writes() != 1 {
		t.Fatalf("trace %d/%d", tr.Reads(), tr.Writes())
	}
	if tr.Events[0].Core != 3 || tr.Events[1].Core != 4 {
		t.Fatal("core attribution lost")
	}
	if tr.Events[1].AtPs <= tr.Events[0].AtPs {
		t.Fatal("trace times not increasing")
	}
}

func TestBandwidthMeter(t *testing.T) {
	c, _ := newCtl(t)
	m := &stats.BandwidthMeter{}
	c.Meter = m
	buf := make([]byte, 64)
	for i := 0; i < 10; i++ {
		c.Read(uint64(i)*64, 0, buf)
	}
	if m.TotalBytes() != 640 {
		t.Fatalf("meter bytes = %d", m.TotalBytes())
	}
}

// alertModule wraps a module, asserting ALERT_N for the first n reads of
// a marked address (the SmartDIMM S13 path).
type alertModule struct {
	dram.Module
	alertAddr  uint64
	alertsLeft int
	sawRetries int
}

func (a *alertModule) HandleCommand(cycle int64, cmd dram.Command, wdata, rdata []byte) (bool, error) {
	if cmd.Kind == dram.CmdRd {
		phys := a.Module.Mapper().Encode(cmd.Rank, cmd.BG, cmd.BA, cmd.Row, cmd.Col)
		if phys == a.alertAddr && a.alertsLeft > 0 {
			a.alertsLeft--
			a.sawRetries++
			return true, nil
		}
	}
	return a.Module.HandleCommand(cycle, cmd, wdata, rdata)
}

func TestAlertRetry(t *testing.T) {
	d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
	am := &alertModule{Module: d, alertAddr: 0x40, alertsLeft: 3}
	c := New(dram.DDR4_3200(), am)

	buf := make([]byte, 64)
	done, err := c.Read(0x40, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Alerts != 3 {
		t.Fatalf("alerts = %d, want 3", c.Stats().Alerts)
	}
	// Backoff doubles per retry: base + 2*base + 4*base before success.
	if done < 7*alertRetryCycles {
		t.Fatalf("backoff penalty not applied: done=%d", done)
	}
}

// TestAlertBackoffCurve pins the exact retry schedule: gaps between
// successive rdCAS reissues must double from the base until the cap.
func TestAlertBackoffCurve(t *testing.T) {
	d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
	am := &alertModule{Module: d, alertAddr: 0x40, alertsLeft: 5}
	c := New(dram.DDR4_3200(), am)
	tr := &stats.CASTrace{}
	c.Trace = tr

	if _, err := c.Read(0x40, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 6 { // 5 alerted attempts + success
		t.Fatalf("CAS reissues = %d, want 6", len(tr.Events))
	}
	tck := c.timing.TCKps
	wantGaps := []int64{100, 200, 400, 800, 800} // base<<k capped at 8x base
	for i, want := range wantGaps {
		gap := (tr.Events[i+1].AtPs - tr.Events[i].AtPs) / tck
		if gap != want {
			t.Fatalf("retry %d gap = %d cycles, want %d", i, gap, want)
		}
	}
}

func TestAlertRetryLimit(t *testing.T) {
	d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
	am := &alertModule{Module: d, alertAddr: 0x40, alertsLeft: 1 << 30}
	c := New(dram.DDR4_3200(), am)
	_, err := c.Read(0x40, 0, make([]byte, 64))
	if err == nil {
		t.Fatal("endless ALERT_N should error out")
	}
	if !errors.Is(err, ErrAlertRetryExhausted) {
		t.Fatalf("error %v is not ErrAlertRetryExhausted", err)
	}
}

// TestCRCInjectionRetries arms the memctrl.crc site: one injected CRC
// failure must retry transparently and still return correct data.
func TestCRCInjectionRetries(t *testing.T) {
	d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
	c := New(dram.DDR4_3200(), d)
	inj := fault.New(11)
	inj.Arm("memctrl.crc", fault.OneShot{N: 1})
	c.Faults = inj

	want := bytes.Repeat([]byte{0xC3}, 64)
	if _, err := c.Write(0x80, 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if _, err := c.Read(0x80, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted across CRC retry")
	}
	st := c.Stats()
	if st.CRCRetries != 1 || st.Alerts != 1 {
		t.Fatalf("CRC retry accounting: %+v", st)
	}
}

// TestDramAlertInjection arms the dram.alert site on a plain DIMM: the
// controller must absorb the spurious ALERT_N and complete the read.
func TestDramAlertInjection(t *testing.T) {
	d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
	inj := fault.New(12)
	inj.Arm("dram.alert", fault.OneShot{N: 1})
	d.Faults = inj
	c := New(dram.DDR4_3200(), d)
	if _, err := c.Read(0, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Alerts != 1 {
		t.Fatalf("alerts = %d, want 1 injected", c.Stats().Alerts)
	}
}

// errWriteModule fails the wrCAS of one marked address.
type errWriteModule struct {
	dram.Module
	badAddr uint64
}

func (m *errWriteModule) HandleCommand(cycle int64, cmd dram.Command, wdata, rdata []byte) (bool, error) {
	if cmd.Kind == dram.CmdWr {
		phys := m.Module.Mapper().Encode(cmd.Rank, cmd.BG, cmd.BA, cmd.Row, cmd.Col)
		if phys == m.badAddr {
			return false, fmt.Errorf("injected wrCAS failure at %#x", phys)
		}
	}
	return m.Module.HandleCommand(cycle, cmd, wdata, rdata)
}

// TestDrainAbortKeepsQueueConsistent: a mid-batch write failure must not
// poison the queue — issued and failed entries leave, the tail stays and
// drains cleanly afterwards.
func TestDrainAbortKeepsQueueConsistent(t *testing.T) {
	d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
	m := &errWriteModule{Module: d, badAddr: 0x40}
	c := New(dram.DDR4_3200(), m)
	buf := bytes.Repeat([]byte{9}, 64)
	c.Write(0x00, 0, buf)
	c.Write(0x40, 0, buf) // will fail
	c.Write(0x80, 0, buf)
	if _, err := c.DrainWrites(); err == nil {
		t.Fatal("drain should surface the wrCAS failure")
	}
	if len(c.wq) != 1 || len(c.wqAddr) != 1 || c.wqAddr[0] != 0x80 {
		t.Fatalf("pending after aborted drain = %d at %#x, want 1 (unattempted tail at 0x80)", len(c.wq), c.wqAddr)
	}
	// The tail's address still names its entry: a new write to it
	// coalesces instead of queueing a second entry.
	newer := bytes.Repeat([]byte{10}, 64)
	c.Write(0x80, 0, newer)
	if len(c.wq) != 1 || len(c.wqAddr) != 1 {
		t.Fatalf("write to the tail's line queued %d entries at %#x, want it coalesced", len(c.wq), c.wqAddr)
	}
	if _, err := c.DrainWrites(); err != nil {
		t.Fatalf("tail drain failed: %v", err)
	}
	if c.Stats().Writes != 2 || len(c.wq) != 0 || len(c.wqAddr) != 0 {
		t.Fatalf("writes = %d, %d/%d pending; want 2 issued, none pending", c.Stats().Writes, len(c.wq), len(c.wqAddr))
	}
	got := make([]byte, 64)
	if _, err := c.Read(0x80, 0, got); err != nil || !bytes.Equal(got, newer) {
		t.Fatalf("tail line reads %v, %v; want the coalesced write", got[0], err)
	}
}

func TestBusTurnaroundCounted(t *testing.T) {
	c, _ := newCtl(t)
	buf := make([]byte, 64)
	c.Read(0, 0, buf)
	c.Write(64, 0, buf)
	c.DrainWrites()
	c.Read(128, 0, buf)
	if c.Stats().Turnarounds < 2 {
		t.Fatalf("turnarounds = %d, want >= 2", c.Stats().Turnarounds)
	}
}

func TestReadWriteSlackExceedsOneMicrosecond(t *testing.T) {
	// §IV-D: the gap between the first sbuf rdCAS and the first dbuf
	// wrCAS exceeds 1us on the testbed; the model's WPQ policy must
	// reproduce that.
	c, _ := newCtl(t)
	// Analytically the queue must fill to the drain threshold before any
	// wrCAS issues, each queued write produced by about one read burst,
	// plus the bus turnaround.
	tm := &c.timing
	slackPs := c.CycleToPs(drainThreshold*int64(tm.TCCD) + int64(tm.TRTW))
	if slackPs < 100_000 { // >= 0.1us analytically...
		t.Fatalf("analytic slack %d ps implausibly small", slackPs)
	}
	// Measured: stream reads of one page while writing another; compare
	// first rdCAS and first wrCAS timestamps.
	tr := &stats.CASTrace{}
	c.Trace = tr
	buf := make([]byte, 64)
	for i := 0; i < 64; i++ {
		c.Read(uint64(i)*64, 0, buf)
		c.Write(1<<20+uint64(i)*64, 0, buf)
	}
	c.DrainWrites()
	var firstRd, firstWr int64 = -1, -1
	for _, ev := range tr.Events {
		if ev.Kind == stats.RdCAS && firstRd == -1 {
			firstRd = ev.AtPs
		}
		if ev.Kind == stats.WrCAS && firstWr == -1 {
			firstWr = ev.AtPs
		}
	}
	if firstRd == -1 || firstWr == -1 {
		t.Fatal("missing CAS events")
	}
	slack := firstWr - firstRd
	if slack < 200_000 { // 0.2us in the reduced model; >1us on silicon
		t.Fatalf("measured rd->wr slack %d ps too small", slack)
	}
}

func TestAdvanceToMonotonic(t *testing.T) {
	c, _ := newCtl(t)
	c.AdvanceTo(100)
	if c.Now() != 100 {
		t.Fatal("AdvanceTo failed")
	}
	c.AdvanceTo(50)
	if c.Now() != 100 {
		t.Fatal("AdvanceTo went backward")
	}
	if c.CycleToPs(c.Now()) != 100*dram.DDR4_3200().TCKps {
		t.Fatal("CycleToPs conversion")
	}
}

func TestShortWriteRejected(t *testing.T) {
	c, _ := newCtl(t)
	if _, err := c.Write(0, 0, make([]byte, 10)); err == nil {
		t.Fatal("short write accepted")
	}
}

func BenchmarkStreamRead(b *testing.B) {
	d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
	c := New(dram.DDR4_3200(), d)
	buf := make([]byte, 64)
	cap := dram.SmallGeometry().CapacityBytes()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(uint64(i)*64%cap, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDrainWritesZeroAllocs checks that draining a full write queue to
// the DIMM allocates nothing: the queue's 64-byte entries reach
// HandleCommand in place, not as per-entry heap copies.
func TestDrainWritesZeroAllocs(t *testing.T) {
	c, _ := newCtl(t)
	buf := bytes.Repeat([]byte{7}, 64)
	full := drainThreshold - 1 // one more write would drain itself
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < full; i++ {
			if _, err := c.Write(uint64(i)*64, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.DrainWrites(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("filling and draining %d writes: %v allocs/op, want 0", full, allocs)
	}
	if got := c.Stats().Writes; got != uint64(51*full) {
		t.Fatalf("issued %d writes, want %d", got, 51*full)
	}
}

// TestReadRowHitZeroAllocs checks that a rdCAS to the open row
// allocates nothing: the controller decodes the line, picks its bank
// and reaches HandleCommand without a heap copy of the command or the
// line.
func TestReadRowHitZeroAllocs(t *testing.T) {
	c, _ := newCtl(t)
	buf := make([]byte, 64)
	if _, err := c.Read(0, 0, buf); err != nil { // opens row 0
		t.Fatal(err)
	}
	cols := uint64(dram.SmallGeometry().ColsPerRow)
	var i uint64
	allocs := testing.AllocsPerRun(100, func() {
		i++
		if _, err := c.Read(i%cols*64, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("row-hit read: %v allocs/op, want 0", allocs)
	}
	if st := c.Stats(); st.RowHits != 101 || st.RowMisses != 1 || st.RowConflict != 0 {
		t.Fatalf("stats %+v, want 101 row hits after one miss", st)
	}
}
