// Package sim provides the discrete-event simulation kernel the system
// models run on (network, server, co-runners), plus the calibration
// parameters that map the paper's testbed components onto model costs
// (params.go).
package sim

import (
	"container/heap"

	"repro/internal/telemetry"
)

// event is a scheduled callback. Events are pooled on a free list so
// steady-state scheduling allocates nothing; gen disambiguates
// incarnations of a recycled event so a stale Cancel handle is a no-op
// rather than killing whatever reused the slot.
type event struct {
	at    int64 // picoseconds
	seq   uint64
	fn    func()
	gen   uint64
	index int // heap position; -1 once popped or cancelled
}

// eventHeap orders events by time, then insertion order for determinism.
// Swap/Push/Pop keep each event's index current so cancellation can
// remove it in O(log n) without a tombstone scan.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a deterministic discrete-event scheduler with picosecond
// resolution.
type Engine struct {
	now    int64
	seq    uint64
	events eventHeap
	free   []*event
	ran    uint64

	// Tracer, when set, records one coarse span per RunUntil window on
	// the "engine" track. The per-event paths (At/Step/Cancel) are never
	// instrumented — they are the 0-alloc hot core of the kernel.
	Tracer *telemetry.Tracer
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in picoseconds.
func (e *Engine) Now() int64 { return e.now }

// Processed returns how many events have run.
func (e *Engine) Processed() uint64 { return e.ran }

// Cancel is a handle returned by At/After; Cancel removes the event
// from the queue (idempotent, allocation-free). The zero value is a
// no-op, so a Cancel field needs no nil guard before use.
type Cancel struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Calling it after the event has
// run, been cancelled, or been recycled into a new event does nothing.
func (c Cancel) Cancel() {
	if c.ev == nil || c.ev.gen != c.gen {
		return
	}
	heap.Remove(&c.e.events, c.ev.index)
	c.e.recycle(c.ev)
}

// alloc takes an event from the free list, or makes one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle retires an event: the generation bump invalidates outstanding
// Cancel handles, and dropping fn releases the callback's captures.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// At schedules fn at absolute time t (>= Now, else it runs at Now).
func (e *Engine) At(t int64, fn func()) Cancel {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	heap.Push(&e.events, ev)
	return Cancel{e: e, ev: ev, gen: ev.gen}
}

// After schedules fn delta picoseconds from now.
func (e *Engine) After(delta int64, fn func()) Cancel {
	return e.At(e.now+delta, fn)
}

// Step runs the next event; it reports whether one was run.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	at, fn := ev.at, ev.fn
	e.recycle(ev) // before fn: the callback may schedule into this slot
	e.now = at
	e.ran++
	fn()
	return true
}

// RunUntil processes events until the queue is empty or time exceeds
// deadline. It returns the number of events processed.
func (e *Engine) RunUntil(deadline int64) uint64 {
	start := e.now
	n := uint64(0)
	for len(e.events) > 0 && e.events[0].at <= deadline {
		if e.Step() {
			n++
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	if e.Tracer != nil && deadline > start {
		e.Tracer.Span(e.Tracer.Track("engine"), "run", start, deadline-start)
	}
	return n
}

// Pending returns the number of live queued events. Cancelled events
// are removed eagerly, so this is the heap size: O(1).
func (e *Engine) Pending() int { return len(e.events) }

// NextAt returns the time of the earliest queued event, if any. The
// sharded coordinator uses it to compute the conservative epoch horizon.
func (e *Engine) NextAt() (int64, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// runEpoch processes events strictly before horizon and reports how
// many ran. Unlike RunUntil it neither advances the clock to the
// horizon nor records a tracer span: the sharded coordinator calls it
// once per lookahead epoch, and only the final deadline should move
// idle clocks or appear on the trace. It shares Step's 0-alloc path.
func (e *Engine) runEpoch(horizon int64) uint64 {
	n := uint64(0)
	for len(e.events) > 0 && e.events[0].at < horizon {
		e.Step()
		n++
	}
	return n
}

// advanceTo moves the clock forward to t if it lags behind (never
// backward). The sharded coordinator applies the run deadline to every
// shard after the last epoch, mirroring RunUntil's trailing-edge clock
// advance so measurement windows close at the same instant everywhere.
func (e *Engine) advanceTo(t int64) {
	if t > e.now {
		e.now = t
	}
}

// Time helpers.
const (
	Ns = int64(1_000)
	Us = int64(1_000_000)
	Ms = int64(1_000_000_000)
	S  = int64(1_000_000_000_000)
)
