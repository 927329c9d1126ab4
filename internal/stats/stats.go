// Package stats provides the measurement primitives used across the
// SmartDIMM reproduction: counters, bandwidth meters, latency histograms
// with percentile queries, time-series samplers, and DDR CAS-command trace
// capture (used to regenerate Fig. 9 of the paper).
//
// All types are plain value types guarded by the caller unless documented
// otherwise; the simulator is single-threaded per system instance, so the
// hot-path types avoid locks.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/telemetry"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Collect implements telemetry.Collector.
func (c *Counter) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "count", Value: float64(c.n)})
}

// Degradation counts graceful-degradation events on an offload path:
// operations served by the primary placement, operations demoted to the
// fallback (CPU) path, and circuit-breaker transitions. A zero value is
// ready to use.
type Degradation struct {
	PrimaryOps     uint64 // served by the primary backend
	FallbackOps    uint64 // demoted to the fallback path
	ShortCircuits  uint64 // routed straight to fallback while the breaker was open
	Opens          uint64 // breaker open transitions (primary demoted)
	Closes         uint64 // breaker close transitions (primary restored)
	InjectedFaults uint64 // failures forced by fault injection
}

// FallbackRate returns the fraction of operations that degraded.
func (d *Degradation) FallbackRate() float64 {
	total := d.PrimaryOps + d.FallbackOps
	if total == 0 {
		return 0
	}
	return float64(d.FallbackOps) / float64(total)
}

// Collect implements telemetry.Collector; every path that previously
// hand-formatted these counters now registers the ladder and prints
// through telemetry.Registry.WriteText.
func (d *Degradation) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "primary_ops", Value: float64(d.PrimaryOps)})
	emit(telemetry.Sample{Name: "fallback_ops", Value: float64(d.FallbackOps)})
	emit(telemetry.Sample{Name: "short_circuits", Value: float64(d.ShortCircuits)})
	emit(telemetry.Sample{Name: "opens", Value: float64(d.Opens)})
	emit(telemetry.Sample{Name: "closes", Value: float64(d.Closes)})
	emit(telemetry.Sample{Name: "injected_faults", Value: float64(d.InjectedFaults)})
	emit(telemetry.Sample{Name: "fallback_rate", Value: d.FallbackRate()})
}

// Gauge is a sampled instantaneous value that tracks its running
// maximum, minimum and mean.
type Gauge struct {
	cur, min, max float64
	sum           float64
	samples       uint64
}

// Set records a new sample for the gauge.
func (g *Gauge) Set(v float64) {
	if g.samples == 0 {
		g.min, g.max = v, v
	} else {
		if v < g.min {
			g.min = v
		}
		if v > g.max {
			g.max = v
		}
	}
	g.cur = v
	g.sum += v
	g.samples++
}

// Value returns the most recent sample.
func (g *Gauge) Value() float64 { return g.cur }

// Max returns the largest sample seen so far, or 0 before any sample.
func (g *Gauge) Max() float64 { return g.max }

// Min returns the smallest sample seen so far, or 0 before any sample.
func (g *Gauge) Min() float64 { return g.min }

// Mean returns the arithmetic mean of all samples, or 0 before any sample.
func (g *Gauge) Mean() float64 {
	if g.samples == 0 {
		return 0
	}
	return g.sum / float64(g.samples)
}

// Samples returns how many times Set has been called.
func (g *Gauge) Samples() uint64 { return g.samples }

// Collect implements telemetry.Collector.
func (g *Gauge) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "value", Value: g.cur})
	emit(telemetry.Sample{Name: "min", Value: g.min})
	emit(telemetry.Sample{Name: "max", Value: g.max})
	emit(telemetry.Sample{Name: "mean", Value: g.Mean()})
}

// BandwidthMeter accumulates bytes transferred against simulated time and
// reports utilization against a configured peak rate. Time is expressed in
// picoseconds, matching the DRAM model's clock resolution.
type BandwidthMeter struct {
	// PeakBytesPerSec is the theoretical peak of the measured channel.
	PeakBytesPerSec float64

	bytes      uint64
	windowBase uint64 // cumulative bytes at the last Sample call
	startPs    int64
	lastPs     int64
	started    bool
	intervals  []BandwidthSample
}

// BandwidthSample is one windowed bandwidth observation.
type BandwidthSample struct {
	AtPs        int64   // window end time
	BytesPerSec float64 // achieved bandwidth in the window
}

// Record accounts bytes transferred at simulated time nowPs.
func (m *BandwidthMeter) Record(nowPs int64, bytes uint64) {
	if !m.started {
		m.startPs = nowPs
		m.started = true
	}
	m.bytes += bytes
	m.lastPs = nowPs
}

// Sample closes a measurement window at nowPs and stores the windowed rate.
// Subsequent samples measure from the previous sample point.
func (m *BandwidthMeter) Sample(nowPs int64) BandwidthSample {
	var window int64
	if len(m.intervals) == 0 {
		window = nowPs - m.startPs
	} else {
		window = nowPs - m.intervals[len(m.intervals)-1].AtPs
	}
	s := BandwidthSample{AtPs: nowPs, BytesPerSec: ratePerSec(m.bytes-m.windowBase, window)}
	m.intervals = append(m.intervals, s)
	m.windowBase = m.bytes
	return s
}

// TotalBytes returns all bytes recorded since creation.
func (m *BandwidthMeter) TotalBytes() uint64 { return m.bytes }

// MeanBytesPerSec returns the lifetime average transfer rate.
func (m *BandwidthMeter) MeanBytesPerSec() float64 {
	if !m.started || m.lastPs == m.startPs {
		return 0
	}
	return ratePerSec(m.bytes, m.lastPs-m.startPs)
}

// Utilization returns mean bandwidth as a fraction of the configured peak,
// or 0 when no peak is configured.
func (m *BandwidthMeter) Utilization() float64 {
	if m.PeakBytesPerSec == 0 {
		return 0
	}
	return m.MeanBytesPerSec() / m.PeakBytesPerSec
}

// Samples returns the windowed samples captured so far.
func (m *BandwidthMeter) Samples() []BandwidthSample { return m.intervals }

// Merge folds another meter's traffic into this one, so per-device
// channel meters aggregate into a fleet total. Byte counts add; the
// merged observation window spans both meters' windows (fleet members
// run under one simulated clock, so the union interval is meaningful).
// Windowed samples are not merged — sample the aggregate instead.
func (m *BandwidthMeter) Merge(o *BandwidthMeter) {
	if o == nil || !o.started {
		return
	}
	if !m.started {
		m.startPs, m.lastPs, m.started = o.startPs, o.lastPs, true
	} else {
		if o.startPs < m.startPs {
			m.startPs = o.startPs
		}
		if o.lastPs > m.lastPs {
			m.lastPs = o.lastPs
		}
	}
	m.bytes += o.bytes
	m.windowBase += o.bytes
}

// Collect implements telemetry.Collector.
func (m *BandwidthMeter) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "total_bytes", Value: float64(m.bytes)})
	emit(telemetry.Sample{Name: "mean_bytes_per_sec", Value: m.MeanBytesPerSec()})
	emit(telemetry.Sample{Name: "utilization", Value: m.Utilization()})
}

func ratePerSec(bytes uint64, ps int64) float64 {
	if ps <= 0 {
		return 0
	}
	return float64(bytes) / (float64(ps) * 1e-12)
}

// Histogram is a latency/size histogram with percentile queries. The
// default (exact) mode stores raw samples — short simulation runs are
// bounded, and exact quantiles simplify validation against the paper.
// SetBounded switches to a log2-bucketed sketch with fixed memory
// (histSubBuckets linear sub-buckets per power-of-two octave, ~16KB
// total), which is what long-lived aggregation paths (the fleet's
// service-time sketches, the load generator's latency record) use so
// memory stays flat at fleet request rates. Bounded percentiles are
// nearest-rank over bucket midpoints: relative error is at most one
// sub-bucket width (~1/histSubBuckets of an octave); Min, Max, Mean,
// and Count stay exact in both modes.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
	n       uint64

	bounded  bool
	buckets  []uint64
	min, max float64
}

// Bounded-mode geometry: octaves cover [2^(histMinExp-1), 2^histMaxExp)
// with histSubBuckets linear sub-buckets each. Bucket 0 collects v <= 0
// and underflow; the top bucket collects overflow.
const (
	histSubBuckets = 16
	histMinExp     = -64
	histMaxExp     = 64
	histNumBuckets = (histMaxExp-histMinExp+1)*histSubBuckets + 1
)

// bucketIndex maps a sample to its bounded-mode bucket.
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp < histMinExp {
		return 0
	}
	if exp > histMaxExp {
		exp = histMaxExp
	}
	sub := int((frac - 0.5) * 2 * histSubBuckets)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return (exp-histMinExp)*histSubBuckets + sub + 1
}

// bucketMid returns the linear midpoint of a bucket's value range, the
// representative bounded percentiles report.
func bucketMid(idx int) float64 {
	if idx <= 0 {
		return 0
	}
	idx--
	exp := histMinExp + idx/histSubBuckets
	sub := idx % histSubBuckets
	lo := math.Ldexp(1, exp-1) // 2^(exp-1), the octave floor
	return lo * (1 + (float64(sub)+0.5)/histSubBuckets)
}

// SetBounded switches the histogram to the fixed-memory log2-bucketed
// mode, converting any samples already observed. Merging a bounded
// histogram into an exact one promotes the receiver, so boundedness is
// contagious through aggregation trees (a fleet total merged from
// bounded member sketches is itself bounded).
func (h *Histogram) SetBounded() {
	if h.bounded {
		return
	}
	h.bounded = true
	h.buckets = make([]uint64, histNumBuckets)
	for _, v := range h.samples {
		h.buckets[bucketIndex(v)]++
	}
	if len(h.samples) > 0 {
		if !h.sorted {
			sort.Float64s(h.samples)
		}
		h.min, h.max = h.samples[0], h.samples[len(h.samples)-1]
	}
	h.samples, h.sorted = nil, false
}

// Bounded reports whether the histogram is in log2-bucketed mode.
func (h *Histogram) Bounded() bool { return h.bounded }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.bounded {
		if h.buckets == nil {
			h.buckets = make([]uint64, histNumBuckets)
		}
		h.buckets[bucketIndex(v)]++
		if h.n == 0 {
			h.min, h.max = v, v
		} else {
			if v < h.min {
				h.min = v
			}
			if v > h.max {
				h.max = v
			}
		}
	} else {
		h.samples = append(h.samples, v)
		h.sorted = false
	}
	h.sum += v
	h.n++
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int { return int(h.n) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank: on the sorted samples in exact mode, on bucket
// midpoints in bounded mode (with exact min/max at the extremes).
// Returns 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if h.bounded {
		if p <= 0 {
			return h.min
		}
		if p >= 100 {
			return h.max
		}
		rank := uint64(math.Ceil(p / 100 * float64(h.n)))
		if rank < 1 {
			rank = 1
		}
		var cum uint64
		for i, c := range h.buckets {
			cum += c
			if cum >= rank {
				// Clamp the representative to the observed range so a
				// lone min/max sample never reports outside it.
				v := bucketMid(i)
				if v < h.min {
					v = h.min
				}
				if v > h.max {
					v = h.max
				}
				return v
			}
		}
		return h.max
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.samples[rank]
}

// Merge folds another histogram's samples into this one so per-device
// latency sketches aggregate into fleet percentiles. With two exact
// histograms, both inputs are sorted in place (each is O(n log n) at
// most once over its lifetime) and combined with a single linear
// two-pointer pass — the union is never re-sorted, so repeated fleet
// aggregation stays O(total) after the first query on each member. If
// either side is bounded the result is bounded (the receiver promotes
// itself if needed): bounded-bounded merges add bucket counts, and an
// exact argument is re-observed bucket-wise. The argument is never
// mutated beyond sorting its samples.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.bounded || o.bounded {
		h.SetBounded()
		if h.buckets == nil {
			h.buckets = make([]uint64, histNumBuckets)
		}
		if o.bounded {
			for i, c := range o.buckets {
				h.buckets[i] += c
			}
		} else {
			for _, v := range o.samples {
				h.buckets[bucketIndex(v)]++
			}
		}
		omin, omax := o.Percentile(0), o.Percentile(100)
		if h.n == 0 {
			h.min, h.max = omin, omax
		} else {
			if omin < h.min {
				h.min = omin
			}
			if omax > h.max {
				h.max = omax
			}
		}
		h.sum += o.sum
		h.n += o.n
		return
	}
	if !o.sorted {
		sort.Float64s(o.samples)
		o.sorted = true
	}
	if len(h.samples) == 0 {
		h.samples = append(h.samples, o.samples...)
		h.sorted = true
		h.sum += o.sum
		h.n += o.n
		return
	}
	if !h.sorted {
		sort.Float64s(h.samples)
	}
	merged := make([]float64, 0, len(h.samples)+len(o.samples))
	i, j := 0, 0
	for i < len(h.samples) && j < len(o.samples) {
		if h.samples[i] <= o.samples[j] {
			merged = append(merged, h.samples[i])
			i++
		} else {
			merged = append(merged, o.samples[j])
			j++
		}
	}
	merged = append(merged, h.samples[i:]...)
	merged = append(merged, o.samples[j:]...)
	h.samples = merged
	h.sorted = true
	h.sum += o.sum
	h.n += o.n
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 { return h.Percentile(0) }

// Collect implements telemetry.Collector.
func (h *Histogram) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "count", Value: float64(h.Count())})
	emit(telemetry.Sample{Name: "mean", Value: h.Mean()})
	emit(telemetry.Sample{Name: "p50", Value: h.Percentile(50)})
	emit(telemetry.Sample{Name: "p95", Value: h.Percentile(95)})
	emit(telemetry.Sample{Name: "p99", Value: h.Percentile(99)})
	emit(telemetry.Sample{Name: "max", Value: h.Max()})
}

// Reset discards all samples; the mode (exact or bounded) is kept.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = true
	h.sum = 0
	h.n = 0
	h.min, h.max = 0, 0
	for i := range h.buckets {
		h.buckets[i] = 0
	}
}

// TimeSeries captures (time, value) pairs for figures that plot a value
// over time, such as Fig. 10's scratchpad occupancy curves.
type TimeSeries struct {
	Name   string
	Points []SeriesPoint
}

// SeriesPoint is one (time, value) observation.
type SeriesPoint struct {
	AtPs  int64
	Value float64
}

// Append records a point at simulated time atPs.
func (t *TimeSeries) Append(atPs int64, v float64) {
	t.Points = append(t.Points, SeriesPoint{AtPs: atPs, Value: v})
}

// Last returns the most recent value, or 0 when empty.
func (t *TimeSeries) Last() float64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].Value
}

// MaxAfter returns the maximum value among points at or after fromPs.
// It is used to check equilibrium occupancy in Fig. 10 after warmup.
func (t *TimeSeries) MaxAfter(fromPs int64) float64 {
	max := 0.0
	for _, p := range t.Points {
		if p.AtPs >= fromPs && p.Value > max {
			max = p.Value
		}
	}
	return max
}

// Downsample returns at most n points evenly spaced across the series,
// which keeps figure dumps readable.
func (t *TimeSeries) Downsample(n int) []SeriesPoint {
	if n <= 0 || len(t.Points) <= n {
		return t.Points
	}
	out := make([]SeriesPoint, 0, n)
	step := float64(len(t.Points)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, t.Points[int(float64(i)*step)])
	}
	return out
}

// String renders a short summary of the series.
func (t *TimeSeries) String() string {
	return fmt.Sprintf("series %q: %d points, last=%.3f", t.Name, len(t.Points), t.Last())
}
