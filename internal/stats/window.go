package stats

import "repro/internal/telemetry"

// Window is a rolling histogram: observations land in the current
// epoch, and Roll retires the oldest of the last N epochs. Percentile
// queries cover every live epoch, so a Window registered in the
// telemetry registry reports *recent* tail latency — the autoscaler's
// input signal — instead of the run-to-date aggregate a plain
// Histogram gives (which stops responding to load changes once enough
// history accumulates). Epochs run in the bounded log2-bucketed mode,
// so memory stays flat no matter how long the run is.
//
// Like the rest of this package, a Window is owned by a single system
// instance and is not safe for concurrent use.
type Window struct {
	epochs  []Histogram
	scratch Histogram
	cur     int
	dirty   bool
}

// NewWindow returns a rolling histogram covering the last `epochs`
// Roll intervals (minimum 1).
func NewWindow(epochs int) *Window {
	if epochs < 1 {
		epochs = 1
	}
	w := &Window{epochs: make([]Histogram, epochs)}
	for i := range w.epochs {
		w.epochs[i].SetBounded()
	}
	w.scratch.SetBounded()
	return w
}

// Observe records one sample into the current epoch.
func (w *Window) Observe(v float64) {
	w.epochs[w.cur].Observe(v)
	w.dirty = true
}

// Roll closes the current epoch and evicts the oldest one. The
// autoscaler calls it once per control tick, making the window span
// NewWindow's epochs ticks of history.
func (w *Window) Roll() {
	w.cur = (w.cur + 1) % len(w.epochs)
	w.epochs[w.cur].Reset()
	w.dirty = true
}

// merged rebuilds the cross-epoch aggregate lazily: queries between
// mutations share one merge pass.
func (w *Window) merged() *Histogram {
	if w.dirty {
		w.scratch.Reset()
		for i := range w.epochs {
			w.scratch.Merge(&w.epochs[i])
		}
		w.dirty = false
	}
	return &w.scratch
}

// Collect implements telemetry.Collector with the same sample names as
// Histogram, so "prefix.p99" reads the windowed tail.
func (w *Window) Collect(emit func(telemetry.Sample)) {
	m := w.merged()
	emit(telemetry.Sample{Name: "count", Value: float64(m.Count())})
	emit(telemetry.Sample{Name: "mean", Value: m.Mean()})
	emit(telemetry.Sample{Name: "p50", Value: m.Percentile(50)})
	emit(telemetry.Sample{Name: "p95", Value: m.Percentile(95)})
	emit(telemetry.Sample{Name: "p99", Value: m.Percentile(99)})
	emit(telemetry.Sample{Name: "max", Value: m.Max()})
}
