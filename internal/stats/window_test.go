package stats

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

func TestWindowRollEvictsOldEpochs(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 100; i++ {
		w.Observe(1000) // epoch A: high
	}
	if got := w.merged().Percentile(99); math.Abs(got-1000)/1000 > 0.1 {
		t.Fatalf("p99 before roll = %g, want ~1000", got)
	}
	w.Roll()
	for i := 0; i < 100; i++ {
		w.Observe(10)
	}
	// Window still spans both epochs: p99 dominated by the old highs.
	if got := w.merged().Percentile(99); got < 500 {
		t.Fatalf("p99 with high epoch live = %g, want > 500", got)
	}
	// Two more rolls push epoch A out of the window entirely.
	w.Roll()
	for i := 0; i < 100; i++ {
		w.Observe(10)
	}
	w.Roll()
	for i := 0; i < 100; i++ {
		w.Observe(10)
	}
	if got := w.merged().Percentile(99); got > 50 {
		t.Fatalf("p99 after eviction = %g, want ~10", got)
	}
	if n := w.merged().Count(); n != 300 {
		t.Fatalf("count = %d, want 300 (3 live epochs x 100)", n)
	}
}

// Rolling far past the epoch count must wrap cleanly: after any number
// of rolls, exactly Epochs() epochs are live and everything older is
// gone — including the epoch the cursor wrapped back onto.
func TestWindowRollWrapsPastEpochs(t *testing.T) {
	w := NewWindow(3)
	// Ten epochs, each holding ten samples of value 100*(epoch+1); the
	// window must end up spanning epochs 7, 8, 9 only.
	for epoch := 0; epoch < 10; epoch++ {
		if epoch > 0 {
			w.Roll()
		}
		for i := 0; i < 10; i++ {
			w.Observe(100 * float64(epoch+1))
		}
	}
	if n := w.merged().Count(); n != 30 {
		t.Fatalf("count after wraparound = %d, want 30 (3 live epochs)", n)
	}
	// Oldest live epoch holds value 800: the minimum must not reach
	// further back than that, and the mean must be ~(800+900+1000)/3.
	if min := w.merged().Percentile(0); min < 700 {
		t.Fatalf("min = %g, want >= ~800 (older epochs must be evicted)", min)
	}
	if mean := w.merged().Mean(); math.Abs(mean-900)/900 > 0.01 {
		t.Fatalf("mean = %g, want ~900", mean)
	}
}

// epochs=1 degenerates to "current interval only": every Roll clears
// the whole window. NewWindow clamps smaller requests up to 1.
func TestWindowSingleEpochDegenerate(t *testing.T) {
	for _, req := range []int{1, 0, -5} {
		w := NewWindow(req)
		if len(w.epochs) != 1 {
			t.Fatalf("NewWindow(%d).Epochs() = %d, want 1", req, len(w.epochs))
		}
		w.Observe(100)
		w.Observe(200)
		if w.merged().Count() != 2 {
			t.Fatalf("count = %d, want 2", w.merged().Count())
		}
		w.Roll()
		if w.merged().Count() != 0 || w.merged().Percentile(99) != 0 || w.merged().Mean() != 0 {
			t.Fatalf("NewWindow(%d): roll did not clear the single epoch: count=%d",
				req, w.merged().Count())
		}
		w.Observe(50)
		if w.merged().Count() != 1 {
			t.Fatalf("post-roll observe lost: count = %d", w.merged().Count())
		}
	}
}

// Observations after a Roll must be visible to the very next query:
// the lazy merge cache may not serve a stale aggregate.
func TestWindowObserveAfterRollIsFresh(t *testing.T) {
	w := NewWindow(4)
	w.Observe(10)
	if w.merged().Count() != 1 { // force the merge cache to populate
		t.Fatal("setup")
	}
	w.Roll()
	if w.merged().Count() != 1 { // cache rebuilt after roll, old sample still live
		t.Fatalf("post-roll count = %d, want 1", w.merged().Count())
	}
	w.Observe(1000)
	if w.merged().Count() != 2 {
		t.Fatalf("observe after roll invisible: count = %d, want 2", w.merged().Count())
	}
	if max := w.merged().Percentile(100); max < 900 {
		t.Fatalf("fresh sample missing from percentile: max = %g", max)
	}
}

// Boundedness is contagious through Merge, and the promoted aggregate's
// Collect output switches to bucketed semantics: a fleet total merged
// from a window's bounded sketch is itself bounded, so registry samples
// built from it are bucket midpoints, not exact order statistics.
func TestWindowMergeContagionThroughCollect(t *testing.T) {
	w := NewWindow(2)
	for i := 0; i < 1000; i++ {
		w.Observe(1000)
	}

	var total Histogram // exact mode
	for i := 0; i < 10; i++ {
		total.Observe(3)
	}
	if total.bounded {
		t.Fatal("fresh histogram should start exact")
	}
	// Merge the window's aggregate (bounded by construction) into the
	// exact total: the receiver must promote itself.
	if !w.merged().bounded {
		t.Fatal("window aggregate should be bounded by construction")
	}
	total.Merge(w.merged())
	if !total.bounded {
		t.Fatal("merging a bounded sketch did not promote the receiver")
	}

	got := map[string]float64{}
	total.Collect(func(s telemetry.Sample) { got[s.Name] = s.Value })
	if got["count"] != 1010 {
		t.Fatalf("collect count = %g, want 1010", got["count"])
	}
	// Bounded percentiles are bucket midpoints: near the exact value,
	// but generally not equal to it. The p99 of the merged population
	// must land in the 1000-sample cohort's bucket (within one octave).
	if p99 := got["p99"]; p99 < 500 || p99 > 2000 {
		t.Fatalf("bounded p99 = %g, want within an octave of 1000", p99)
	}
	if got["max"] < 500 || got["max"] > 2000 {
		t.Fatalf("bounded max = %g, want within an octave of 1000", got["max"])
	}
}

func TestWindowEmptyAndCollect(t *testing.T) {
	w := NewWindow(2)
	if w.merged().Count() != 0 || w.merged().Percentile(99) != 0 || w.merged().Mean() != 0 {
		t.Fatalf("empty window should report zeros")
	}
	w.Observe(4)
	w.Observe(8)
	got := map[string]float64{}
	w.Collect(func(s telemetry.Sample) { got[s.Name] = s.Value })
	if got["count"] != 2 {
		t.Fatalf("collect count = %g, want 2", got["count"])
	}
	if got["mean"] != 6 {
		t.Fatalf("collect mean = %g, want 6", got["mean"])
	}
	if got["max"] != 8 {
		t.Fatalf("collect max = %g, want 8", got["max"])
	}
}
