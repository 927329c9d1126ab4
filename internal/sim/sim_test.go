package sim

import (
	"bytes"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(300, func() { order = append(order, 3) })
	e.After(100, func() { order = append(order, 1) })
	e.After(200, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 300 {
		t.Fatalf("now = %d", e.Now())
	}
}

func TestEngineTieBreakInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	cancel := e.After(10, func() { ran = true })
	cancel.Cancel()
	cancel.Cancel() // idempotent
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Pending() != 0 {
		t.Fatal("pending count wrong")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(100, tick)
	}
	e.After(100, tick)
	n := e.RunUntil(1000)
	if n != 10 || count != 10 {
		t.Fatalf("ran %d events, count %d", n, count)
	}
	if e.Now() != 1000 {
		t.Fatalf("now = %d after RunUntil", e.Now())
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var hits []int64
	e.After(10, func() {
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 1 || hits[0] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEnginePastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	e.After(100, func() {
		e.At(5, func() {
			if e.Now() != 100 {
				t.Errorf("past event ran at %d", e.Now())
			}
		})
	})
	e.Run()
}

func TestParamsConversions(t *testing.T) {
	p := DefaultParams()
	// 2800 cycles at 2.8GHz = 1us.
	if got := p.CyclesToPs(2800); got != Us {
		t.Fatalf("CyclesToPs = %d", got)
	}
	// AES-GCM 4KB at 1 cycle/byte + 1500 setup ~ 2us.
	ps := p.AESGCMComputePs(4096)
	if ps < Us || ps > 3*Us {
		t.Fatalf("AES 4KB = %dps implausible", ps)
	}
	// Deflate is much slower than AES.
	if p.DeflateComputePs(4096) < 10*p.AESGCMComputePs(4096)/2 {
		t.Fatal("deflate should be much costlier than AES-NI")
	}
	// 1500B at 100Gbps = 120ns.
	if got := p.LinkSerializationPs(1500); got < 119_000 || got > 121_000 {
		t.Fatalf("serialization = %dps, want ~120ns", got)
	}
	if p.SegmentsFor(4096) != 3 {
		t.Fatalf("segments for 4KB = %d", p.SegmentsFor(4096))
	}
	if p.SegmentsFor(0) != 0 {
		t.Fatal("segments for 0")
	}
	if p.PCIeTransferPs(7900) < 900_000 || p.PCIeTransferPs(7900) > 1_100_000 {
		t.Fatalf("PCIe 7900B = %dps, want ~1us", p.PCIeTransferPs(7900))
	}
}

func TestSystemPlainRoundTrip(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Params: DefaultParams(), LLCBytes: 1 << 20, LLCWays: 8})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sys.AllocPlain(8192)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("xyz"), 1000)
	if _, err := sys.Hier.Write(0, addr, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := sys.Hier.Read(nil, 0, addr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestSystemWithSmartDIMMSharesRange(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Params: DefaultParams(), LLCBytes: 1 << 20, LLCWays: 8, WithSmartDIMM: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dev == nil || sys.Driver == nil {
		t.Fatal("SmartDIMM not installed")
	}
	// Offload and plain allocations must not overlap.
	off, err := sys.Driver.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.AllocPlain(4096)
	if err != nil {
		t.Fatal(err)
	}
	if off == plain {
		t.Fatal("allocator collision")
	}
	// DMA into plain memory works and leaks are measurable.
	data := bytes.Repeat([]byte{5}, 4096)
	if err := sys.Hier.DMAWrite(plain, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := sys.Hier.DMARead(nil, plain, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("DMA round trip mismatch")
	}
}

func TestSystemMemoryAccounting(t *testing.T) {
	sys, _ := NewSystem(SystemConfig{Params: DefaultParams(), LLCBytes: 64 * 1024, LLCWays: 8})
	addr, _ := sys.AllocPlain(1 << 20)
	// Stream 1MB through a 64KB LLC: most fills come from DRAM.
	buf := make([]byte, 1<<20)
	sys.Hier.Write(0, addr, buf)
	sys.Hier.Read(nil, 0, addr, 1<<20)
	if sys.MemoryBytesMoved() == 0 {
		t.Fatal("no DRAM traffic recorded for streaming access")
	}
}

func TestSystemTrace(t *testing.T) {
	sys, _ := NewSystem(SystemConfig{Params: DefaultParams(), LLCBytes: 64 * 1024, LLCWays: 8, TraceCAS: 1000})
	addr, _ := sys.AllocPlain(256 * 1024)
	sys.Hier.Write(0, addr, make([]byte, 256*1024))
	sys.Hier.Read(nil, 0, addr, 256*1024)
	if sys.Trace == nil || sys.Trace.Reads() == 0 {
		t.Fatal("trace not capturing")
	}
}
