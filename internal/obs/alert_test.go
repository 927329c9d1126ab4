package obs

import (
	"strings"
	"testing"
)

// stepSeries drives one rule through a value sequence sampled every
// intervalPs and returns the transitions taken.
func stepSeries(t *testing.T, r Rule, intervalPs int64, vals []float64) []Transition {
	t.Helper()
	if err := r.defaults(); err != nil {
		t.Fatal(err)
	}
	st := newStore(len(vals) + 1)
	rs := ruleState{rule: r}
	var out []Transition
	for i, v := range vals {
		at := int64(i+1) * intervalPs
		st.observe(r.Series, at, v)
		if tr, ok := rs.step(st, at); ok {
			out = append(out, tr)
		}
	}
	return out
}

func firings(ts []Transition) int {
	n := 0
	for _, tr := range ts {
		if tr.To == Firing {
			n++
		}
	}
	return n
}

// The damping satellite: a value flapping across the threshold on every
// scrape must never fire under For >= 2 intervals — it mirrors the
// autoscaler's no-flap hysteresis test.
func TestAlertFlappingNeverFiresUnderFor(t *testing.T) {
	const iv = int64(100)
	vals := make([]float64, 64)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = 10 // above
		} else {
			vals[i] = 1 // below
		}
	}
	r := Threshold("flap", "x", ReduceLast, 0, 5, 2*iv)
	ts := stepSeries(t, r, iv, vals)
	if got := firings(ts); got != 0 {
		t.Fatalf("flapping input produced %d firings under For=2 intervals:\n%s",
			got, AlertLog(ts))
	}
	// Every pending excursion must have been cancelled back to inactive.
	for _, tr := range ts {
		if tr.To != Pending && !(tr.From == Pending && tr.To == Inactive) {
			t.Fatalf("unexpected transition %s", tr)
		}
	}
}

// A condition held past For fires exactly once, then resolves exactly
// once when it clears.
func TestAlertForDampingFiresOnceThenResolves(t *testing.T) {
	const iv = int64(100)
	vals := []float64{1, 10, 10, 10, 10, 10, 1, 1}
	r := Threshold("held", "x", ReduceLast, 0, 5, 2*iv)
	ts := stepSeries(t, r, iv, vals)
	want := []string{
		"200 held inactive->pending v=10",
		"400 held pending->firing v=10",
		"700 held firing->inactive v=1",
	}
	got := strings.TrimSuffix(AlertLog(ts), "\n")
	if got != strings.Join(want, "\n") {
		t.Fatalf("transitions:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// For=0 fires on the first breaching tick.
func TestAlertZeroForFiresImmediately(t *testing.T) {
	ts := stepSeries(t, Threshold("now", "x", ReduceLast, 0, 5, 0), 100, []float64{1, 10})
	if len(ts) != 1 || ts[0].To != Firing || ts[0].From != Inactive || ts[0].AtPs != 200 {
		t.Fatalf("transitions = %v", ts)
	}
}

// Delta threshold: a counter bump fires, and the alert resolves once
// the bump slides out of the window.
func TestAlertDeltaThresholdResolves(t *testing.T) {
	const iv = int64(100)
	// Counter: flat, +1 at t=400, flat after.
	vals := []float64{0, 0, 0, 1, 1, 1, 1, 1}
	r := Threshold("trip", "x", ReduceDelta, 2*iv, 0.5, 0)
	ts := stepSeries(t, r, iv, vals)
	want := []string{
		"400 trip inactive->firing v=1",
		"600 trip firing->inactive v=0",
	}
	got := strings.TrimSuffix(AlertLog(ts), "\n")
	if got != strings.Join(want, "\n") {
		t.Fatalf("transitions:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// Absence: a series that stops reporting fires; one that never reported
// fires with v=-1.
func TestAlertAbsence(t *testing.T) {
	r := Rule{Name: "gone", Kind: KindAbsence, Series: "x", WindowPs: 250}
	if err := r.defaults(); err != nil {
		t.Fatal(err)
	}
	st := newStore(8)
	rs := ruleState{rule: r}
	st.observe("x", 100, 1)
	if _, ok := rs.step(st, 100); ok {
		t.Fatal("fresh series fired absence")
	}
	if _, ok := rs.step(st, 300); ok {
		t.Fatal("stale-for-200 fired under window 250")
	}
	tr, ok := rs.step(st, 400)
	if !ok || tr.To != Firing || tr.V != 300 {
		t.Fatalf("stale-for-300 transition = %+v ok=%v", tr, ok)
	}
	st.observe("x", 500, 2)
	if tr, ok := rs.step(st, 500); !ok || tr.To != Inactive {
		t.Fatalf("resumed series did not resolve: %+v ok=%v", tr, ok)
	}

	never := ruleState{rule: r}
	empty := newStore(8)
	if tr, ok := never.step(empty, 50); !ok || tr.To != Firing || tr.V != -1 {
		t.Fatalf("never-reported series: %+v ok=%v", tr, ok)
	}
}

// Burn-rate: both windows must burn past Factor — a short spike trips
// the short window but not the long one, so it never fires; a
// sustained breach fires and later resolves.
func TestAlertBurnRateMultiWindow(t *testing.T) {
	const iv = int64(100)
	r := BurnRate("burn", "p99", 100, 0.25, 2, 8*iv, 2*iv, 0)
	r.MinPoints = 8

	// Short spike: 2 breaching points out of 8 → long frac 0.25, burn 1
	// — under Factor 2, never fires.
	spike := make([]float64, 16)
	for i := range spike {
		spike[i] = 50
	}
	spike[8], spike[9] = 200, 200
	if ts := stepSeries(t, r, iv, spike); firings(ts) != 0 {
		t.Fatalf("short spike fired burn-rate:\n%s", AlertLog(ts))
	}

	// Sustained breach: from point 8 on everything breaches. Long-window
	// frac crosses 0.5 (burn 2) at the 5th breaching point; fires, then
	// resolves once recovery dilutes the windows.
	sustained := make([]float64, 24)
	for i := range sustained {
		switch {
		case i < 8:
			sustained[i] = 50
		case i < 16:
			sustained[i] = 200
		default:
			sustained[i] = 50
		}
	}
	ts := stepSeries(t, r, iv, sustained)
	if firings(ts) != 1 {
		t.Fatalf("sustained breach fired %d times:\n%s", firings(ts), AlertLog(ts))
	}
	if last := ts[len(ts)-1]; last.From != Firing || last.To != Inactive {
		t.Fatalf("burn never resolved:\n%s", AlertLog(ts))
	}
}

func TestRuleValidation(t *testing.T) {
	bad := []Rule{
		{}, // no name/series
		{Name: "x", Series: "s", Kind: KindAbsence},  // no window
		{Name: "x", Series: "s", Kind: KindBurnRate}, // no budget
		Threshold("x", "s", ReduceDelta, 0, 1, 0),    // windowed reduce, no window
		BurnRate("x", "s", 1, 0.1, 2, 100, 200, 0),   // short > long
	}
	for i, r := range bad {
		if err := r.defaults(); err == nil {
			t.Fatalf("rule %d validated: %+v", i, r)
		}
	}
}
