// Package obs is the deterministic time-series plane: an
// engine-scheduled scraper samples the telemetry registry on simulated
// picosecond ticks into bounded ring-buffered series, declarative alert
// rules (threshold, absence, multi-window SLO burn-rate) evaluate on
// every scrape with For-duration damping, and a flight recorder dumps a
// scoped incident bundle — a ps-windowed trace slice plus a canonical
// text report — when a rule fires.
//
// Determinism rules (DESIGN.md §18):
//
//   - Time is the simulated clock, never the wall clock. A scrape tick
//     is one engine event; sampling, rule evaluation, recorder capture,
//     and subscriber hooks all run inside it, in a fixed order, so no
//     other event can interleave and two runs with the same seed are
//     byte-identical at any ExecWorkers/GOMAXPROCS.
//   - Series are created in first-seen order, which is the registry's
//     registration order — no map iteration touches any output path.
//   - Rules evaluate in configuration order; the alert log and incident
//     bundles render with %g floats, byte-stable across runs.
package obs

// Point is one scraped sample: a value observed at a simulated instant.
type Point struct {
	AtPs int64
	V    float64
}

// Series is a bounded ring of points for one metric. When the ring is
// full the oldest point is dropped — the store holds a recent horizon,
// not the whole run.
type Series struct {
	name string
	buf  []Point
	head int // index of the oldest point
	n    int
}

func newSeries(name string, capacity int) *Series {
	return &Series{name: name, buf: make([]Point, capacity)}
}

// Name returns the metric name ("server.window.p99", "fleet.active").
func (s *Series) Name() string { return s.name }

// Len returns the number of retained points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Dropped reports whether the ring has wrapped (oldest points lost).
func (s *Series) Dropped() bool { return s != nil && s.n == len(s.buf) && s.head != 0 }

// At returns the i-th retained point, oldest first (0 <= i < Len).
func (s *Series) At(i int) Point { return s.buf[(s.head+i)%len(s.buf)] }

func (s *Series) push(p Point) {
	if s.n < len(s.buf) {
		s.buf[(s.head+s.n)%len(s.buf)] = p
		s.n++
		return
	}
	s.buf[s.head] = p
	s.head = (s.head + 1) % len(s.buf)
}

// Last returns the newest point.
func (s *Series) Last() (Point, bool) {
	if s.Len() == 0 {
		return Point{}, false
	}
	return s.At(s.n - 1), true
}

// LastValue returns the newest value, or 0 on an empty/nil series.
func (s *Series) LastValue() float64 {
	p, ok := s.Last()
	if !ok {
		return 0
	}
	return p.V
}

// window returns the index range [lo, hi) of points with
// AtPs in (nowPs-windowPs, nowPs] — the half-open lookback every
// windowed operator shares.
func (s *Series) window(nowPs, windowPs int64) (lo, hi int) {
	if s == nil {
		return 0, 0
	}
	hi = s.n
	for hi > 0 && s.At(hi-1).AtPs > nowPs {
		hi--
	}
	lo = hi
	for lo > 0 && s.At(lo-1).AtPs > nowPs-windowPs {
		lo--
	}
	return lo, hi
}

// CountOver returns how many points fall in (nowPs-windowPs, nowPs].
func (s *Series) CountOver(nowPs, windowPs int64) int {
	lo, hi := s.window(nowPs, windowPs)
	return hi - lo
}

// baseline returns the newest point at or before cutoff, falling back
// to the oldest retained point when the ring no longer reaches back
// that far.
func (s *Series) baseline(cutoff int64) (Point, bool) {
	if s.Len() == 0 {
		return Point{}, false
	}
	for i := s.n - 1; i >= 0; i-- {
		if p := s.At(i); p.AtPs <= cutoff {
			return p, true
		}
	}
	return s.At(0), true
}

// Delta returns newest-minus-baseline over the window: for a
// monotonically increasing counter ("fleet.trips") this is "how many in
// the last windowPs". The baseline is the newest point at or before
// nowPs-windowPs (the value the counter had entering the window).
func (s *Series) Delta(nowPs, windowPs int64) float64 {
	last, ok := s.Last()
	if !ok {
		return 0
	}
	base, _ := s.baseline(nowPs - windowPs)
	return last.V - base.V
}

// MaxOver returns the maximum value in the window (0 when empty).
func (s *Series) MaxOver(nowPs, windowPs int64) float64 {
	lo, hi := s.window(nowPs, windowPs)
	max := 0.0
	for i := lo; i < hi; i++ {
		if v := s.At(i).V; i == lo || v > max {
			max = v
		}
	}
	return max
}

// FracOver returns the fraction of window points whose value exceeds
// threshold — the error-budget signal the burn-rate rule consumes
// ("what fraction of recent scrape intervals breached the SLO").
func (s *Series) FracOver(threshold float64, nowPs, windowPs int64) float64 {
	lo, hi := s.window(nowPs, windowPs)
	if hi == lo {
		return 0
	}
	over := 0
	for i := lo; i < hi; i++ {
		if s.At(i).V > threshold {
			over++
		}
	}
	return float64(over) / float64(hi-lo)
}

// StaleForPs returns how long the series has gone without a point as of
// nowPs; a series that never reported returns -1.
func (s *Series) StaleForPs(nowPs int64) int64 {
	last, ok := s.Last()
	if !ok {
		return -1
	}
	return nowPs - last.AtPs
}

// Store holds every scraped series, in first-seen order (the registry's
// registration order — deterministic by construction).
type Store struct {
	capacity int
	list     []*Series
	byName   map[string]*Series
}

func newStore(capacity int) *Store {
	return &Store{capacity: capacity, byName: map[string]*Series{}}
}

func (st *Store) observe(name string, atPs int64, v float64) {
	se := st.byName[name]
	if se == nil {
		se = newSeries(name, st.capacity)
		st.byName[name] = se
		st.list = append(st.list, se)
	}
	se.push(Point{AtPs: atPs, V: v})
}

// Series returns the named series, or nil if it has never been scraped.
func (st *Store) Series(name string) *Series {
	if st == nil {
		return nil
	}
	return st.byName[name]
}

// Each visits every series in first-seen order.
func (st *Store) Each(f func(*Series)) {
	if st == nil {
		return
	}
	for _, se := range st.list {
		f(se)
	}
}

// Len returns the number of distinct series.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	return len(st.list)
}

// LastValue returns the newest value of the named series (0 if absent)
// — the autoscaler's per-tick read.
func (st *Store) LastValue(name string) float64 {
	return st.Series(name).LastValue()
}
