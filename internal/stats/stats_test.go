package stats

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestBandwidthMeterMeanRate(t *testing.T) {
	m := BandwidthMeter{PeakBytesPerSec: 1e9}
	m.Record(0, 0)
	// 1000 bytes over 1 microsecond = 1e9 bytes/sec.
	m.Record(1_000_000, 1000)
	if got := m.MeanBytesPerSec(); math.Abs(got-1e9) > 1 {
		t.Fatalf("mean rate = %v, want 1e9", got)
	}
	if got := m.Utilization(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("utilization = %v, want 1.0", got)
	}
}

func TestBandwidthMeterWindows(t *testing.T) {
	var m BandwidthMeter
	m.Record(0, 0)
	m.Record(500_000, 500) // 500 B in 0.5 us
	m.Record(1_500_000, 2000)
	if m.TotalBytes() != 2500 {
		t.Fatalf("total = %d, want 2500", m.TotalBytes())
	}
}

func TestBandwidthMeterZeroDuration(t *testing.T) {
	var m BandwidthMeter
	m.Record(100, 64)
	if m.MeanBytesPerSec() != 0 {
		t.Fatal("zero-duration meter must report 0 rate, not Inf")
	}
	if m.Utilization() != 0 {
		t.Fatal("unconfigured peak must report 0 utilization")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{50, 50}, {99, 99}, {100, 100}, {0, 1}, {1, 1},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
	if h.Percentile(0) != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Percentile(0), h.Max())
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	// Property: percentiles are non-decreasing in p for any sample set.
	f := func(vals []float64) bool {
		var h Histogram
		ok := false
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Observe(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCASTraceCountsAndLimit(t *testing.T) {
	tr := CASTrace{Limit: 2}
	tr.Record(CASEvent{AtPs: 1, Kind: RdCAS, PhysAddr: 0x1000, Core: 0})
	tr.Record(CASEvent{AtPs: 2, Kind: WrCAS, PhysAddr: 0x2000, Core: 1})
	tr.Record(CASEvent{AtPs: 3, Kind: RdCAS, PhysAddr: 0x3000, Core: 0})
	if tr.Reads() != 2 || tr.Writes() != 1 {
		t.Fatalf("reads/writes = %d/%d, want 2/1", tr.Reads(), tr.Writes())
	}
	if tr.dropped != 1 || len(tr.Events) != 2 {
		t.Fatalf("dropped=%d stored=%d, want 1/2", tr.dropped, len(tr.Events))
	}
}

func TestCASTraceDump(t *testing.T) {
	var tr CASTrace
	tr.Record(CASEvent{AtPs: 10, Kind: RdCAS, PhysAddr: 0x40, Core: 2})
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "10 rdCAS 0x40 2\n" {
		t.Fatalf("dump = %q", got)
	}
}

func TestCASTraceMonotonicRuns(t *testing.T) {
	var tr CASTrace
	// Core 0 reads monotonically 4 addresses, then restarts (new CompCpy).
	addrs := []uint64{0x0, 0x40, 0x80, 0xc0, 0x40, 0x80}
	for i, a := range addrs {
		tr.Record(CASEvent{AtPs: int64(i), Kind: RdCAS, PhysAddr: a, Core: 0})
	}
	runs := tr.MonotonicRunLengths()[0]
	if len(runs) != 2 || runs[0] != 4 || runs[1] != 2 {
		t.Fatalf("runs = %v, want [4 2]", runs)
	}
}

func TestCASTraceAddressSpread(t *testing.T) {
	var tr CASTrace
	if tr.AddressSpreadBytes() != 0 {
		t.Fatal("empty trace spread should be 0")
	}
	tr.Record(CASEvent{PhysAddr: 32 << 20})
	tr.Record(CASEvent{PhysAddr: 0})
	if got := tr.AddressSpreadBytes(); got != 32<<20 {
		t.Fatalf("spread = %d, want 32MB", got)
	}
}

func TestCASKindString(t *testing.T) {
	if RdCAS.String() != "rdCAS" || WrCAS.String() != "wrCAS" {
		t.Fatal("CASKind strings wrong")
	}
}

func TestHistogramMergeMatchesUnion(t *testing.T) {
	var a, b, want Histogram
	for i := 0; i < 50; i++ {
		v := float64((i * 7919) % 100)
		a.Observe(v)
		want.Observe(v)
	}
	for i := 0; i < 37; i++ {
		v := float64((i * 104729) % 250)
		b.Observe(v)
		want.Observe(v)
	}
	a.Percentile(50) // force a to be sorted before the merge
	a.Merge(&b)
	if a.Count() != want.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), want.Count())
	}
	if math.Abs(a.Mean()-want.Mean()) > 1e-9 {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), want.Mean())
	}
	for _, p := range []float64{0, 1, 25, 50, 90, 99, 100} {
		if got, exp := a.Percentile(p), want.Percentile(p); got != exp {
			t.Fatalf("p%v = %v, want %v", p, got, exp)
		}
	}
	// Invariant: the merged sample set is already sorted (no re-sort).
	for i := 1; i < len(a.samples); i++ {
		if a.samples[i-1] > a.samples[i] {
			t.Fatalf("merged samples not sorted at %d", i)
		}
	}
	if !a.sorted {
		t.Fatal("merge must leave the receiver marked sorted")
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	var a Histogram
	a.Merge(nil) // no-op
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 0 {
		t.Fatal("merging empties should observe nothing")
	}
	var b Histogram
	b.Observe(3)
	b.Observe(1)
	a.Merge(&b) // empty receiver adopts the argument's samples
	if a.Count() != 2 || a.Percentile(0) != 1 || a.Percentile(100) != 3 {
		t.Fatalf("merge into empty: count=%d min=%v max=%v", a.Count(), a.Percentile(0), a.Percentile(100))
	}
	if b.Count() != 2 || b.Percentile(100) != 3 {
		t.Fatal("merge must leave the argument intact")
	}
	// Receiver keeps observing after a merge.
	a.Observe(2)
	if a.Percentile(50) != 2 {
		t.Fatalf("post-merge median = %v, want 2", a.Percentile(50))
	}
}

func TestBandwidthMeterMerge(t *testing.T) {
	a := &BandwidthMeter{PeakBytesPerSec: 100e9}
	b := &BandwidthMeter{PeakBytesPerSec: 100e9}
	a.Record(0, 1000)
	a.Record(1e12, 1000) // 2000B over 1s
	b.Record(5e11, 500)
	b.Record(2e12, 1500) // 2000B, window extends to 2s
	a.merge(b)
	if got := a.TotalBytes(); got != 4000 {
		t.Fatalf("merged total = %d, want 4000", got)
	}
	// Union window = [0, 2s] → 4000B / 2s = 2000 B/s.
	if got := a.MeanBytesPerSec(); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("merged mean rate = %v, want 2000", got)
	}
	// Merging into a fresh meter adopts the argument's window.
	total := &BandwidthMeter{}
	total.merge(a)
	if total.TotalBytes() != 4000 || total.MeanBytesPerSec() != a.MeanBytesPerSec() {
		t.Fatal("merge into fresh meter should adopt totals and window")
	}
	var idle BandwidthMeter
	total.merge(&idle) // unstarted argument is a no-op
	if total.TotalBytes() != 4000 {
		t.Fatal("merging an unstarted meter must not change totals")
	}
}

// Bounded mode must answer percentile queries within one sub-bucket of
// relative error while keeping count, mean, min and max exact.
func TestBoundedHistogramPercentiles(t *testing.T) {
	var h Histogram
	h.SetBounded()
	if !h.bounded {
		t.Fatal("SetBounded did not switch modes")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean = %v, want 500.5 (mean must stay exact)", got)
	}
	if h.Percentile(0) != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %v/%v, want exact 1/1000", h.Percentile(0), h.Max())
	}
	// One sub-bucket spans 1/histSubBuckets of an octave: relative error
	// is bounded by a factor of 2^(1/16)-ish; 10% is comfortably outside.
	for _, p := range []float64{25, 50, 90, 99} {
		want := float64(int(math.Ceil(p / 100 * 1000)))
		got := h.Percentile(p)
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("bounded p%v = %v, want ~%v (rel err %.3f)", p, got, want, rel)
		}
	}
}

// Converting an exact histogram mid-life must preserve its contents.
func TestSetBoundedConvertsExistingSamples(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	h.SetBounded()
	if h.Count() != 100 || h.Percentile(0) != 1 || h.Max() != 100 {
		t.Fatalf("conversion lost state: count=%d min=%v max=%v", h.Count(), h.Percentile(0), h.Max())
	}
	if got := h.Percentile(50); math.Abs(got-50)/50 > 0.10 {
		t.Fatalf("p50 after conversion = %v, want ~50", got)
	}
}

// Merging two bounded histograms must equal observing the union into one.
func TestBoundedMergeMatchesUnion(t *testing.T) {
	var a, b, want Histogram
	a.SetBounded()
	b.SetBounded()
	want.SetBounded()
	for i := 0; i < 500; i++ {
		v := math.Exp(float64(i%37) / 5)
		a.Observe(v)
		want.Observe(v)
	}
	for i := 0; i < 300; i++ {
		v := float64(i)*3 + 0.5
		b.Observe(v)
		want.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != want.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), want.Count())
	}
	for p := 0.0; p <= 100; p += 5 {
		if got, w := a.Percentile(p), want.Percentile(p); got != w {
			t.Fatalf("merged p%v = %v, union = %v", p, got, w)
		}
	}
	if a.Percentile(0) != want.Percentile(0) || a.Max() != want.Max() {
		t.Fatalf("merged min/max = %v/%v, want %v/%v", a.Percentile(0), a.Max(), want.Percentile(0), want.Max())
	}
}

// Boundedness is contagious through Merge in both directions: an exact
// receiver promotes itself when fed a bounded argument, and a bounded
// receiver re-observes an exact argument bucket-wise.
func TestHistogramMergeModeContagion(t *testing.T) {
	var exact, bounded Histogram
	bounded.SetBounded()
	for i := 1; i <= 50; i++ {
		exact.Observe(float64(i))
		bounded.Observe(float64(i + 50))
	}
	recv := exact // copy: exact receiver, bounded argument
	recv.Merge(&bounded)
	if !recv.bounded {
		t.Fatal("exact receiver did not promote on bounded merge")
	}
	if recv.Count() != 100 || recv.Percentile(0) != 1 || recv.Max() != 100 {
		t.Fatalf("promoted merge state: count=%d min=%v max=%v", recv.Count(), recv.Percentile(0), recv.Max())
	}

	var recv2 Histogram
	recv2.SetBounded()
	for i := 1; i <= 50; i++ {
		recv2.Observe(float64(i + 50))
	}
	recv2.Merge(&exact) // bounded receiver, exact argument
	if recv2.Count() != 100 || recv2.Percentile(0) != 1 || recv2.Max() != 100 {
		t.Fatalf("bounded<-exact merge state: count=%d min=%v max=%v", recv2.Count(), recv2.Percentile(0), recv2.Max())
	}
	if got := recv2.Percentile(50); math.Abs(got-50)/50 > 0.10 {
		t.Fatalf("bounded<-exact p50 = %v, want ~50", got)
	}
}

// Bounded percentiles must stay monotone in p, like exact ones.
func TestBoundedPercentileMonotonic(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		h.SetBounded()
		ok := false
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Observe(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Memory stays flat in bounded mode: Observe never grows the histogram
// after the bucket array exists.
func TestBoundedObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	h.SetBounded()
	h.Observe(1) // ensure buckets exist
	if a := testing.AllocsPerRun(1000, func() { h.Observe(123.456) }); a != 0 {
		t.Fatalf("bounded Observe allocates %v/op", a)
	}
}

func TestBoundedReset(t *testing.T) {
	var h Histogram
	h.SetBounded()
	for i := 0; i < 10; i++ {
		h.Observe(float64(i + 1))
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("reset did not clear bounded histogram")
	}
	if !h.bounded {
		t.Fatal("reset dropped bounded mode")
	}
	h.Observe(7)
	if h.Count() != 1 || h.Percentile(100) != 7 {
		t.Fatal("bounded histogram unusable after reset")
	}
}
