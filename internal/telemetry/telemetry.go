// Package telemetry is the simulated stack's observability layer:
// deterministic span tracing keyed on simulated picoseconds, a named
// metrics registry, and Chrome/Perfetto trace_event export.
//
// Determinism rules (DESIGN.md §12):
//
//   - Timestamps are simulated picoseconds, never wall clock. Two runs
//     with the same seed produce byte-identical traces, including under
//     the parallel sweep runner (each sweep point owns its Tracer).
//   - Events export in emission order and tracks in creation order; no
//     map iteration touches the output path.
//
// A nil *Tracer is valid, disabled, and free: every method nil-guards,
// so an instrumented hot path costs one pointer compare when tracing is
// off — the same pattern as internal/fault's nil injector.
//
// A Tracer is not safe for concurrent use. One simulated system owns
// one Tracer; the parallel runner gives each sweep point its own.
package telemetry

// TrackID names one horizontal lane of the trace (a Perfetto thread
// track). Tracks identify the component a span belongs to: the engine,
// a memory-controller rank, the buffer device, a server worker, the
// NIC wire, ...
type TrackID int32

// Kind discriminates recorded events.
type Kind uint8

// The kinds map one-to-one onto Perfetto trace_event phases.
const (
	KindSpan       Kind = iota // ph "X": complete span [AtPs, AtPs+DurPs)
	KindInstant                // ph "i": a point in time
	KindCounter                // ph "C": a sampled value
	KindAsyncBegin             // ph "b": start of an overlapping span
	KindAsyncEnd               // ph "e": end of an overlapping span
)

// Event is one recorded trace event. AtPs and DurPs are simulated
// picoseconds.
type Event struct {
	Kind  Kind
	Track TrackID
	Name  string
	AtPs  int64
	DurPs int64   // KindSpan only
	Value float64 // KindCounter only
	ID    uint64  // KindAsyncBegin/End: pairs a begin with its end
}

// Tracer accumulates events in emission order.
type Tracer struct {
	names  []string
	byName map[string]TrackID
	events []Event
}

// New returns an enabled Tracer.
func New() *Tracer { return &Tracer{byName: map[string]TrackID{}} }

// Track returns the ID of the named track, creating it on first use.
// Components cache the ID at construction so per-event sites skip the
// map lookup. On a nil Tracer it returns 0.
func (t *Tracer) Track(name string) TrackID {
	if t == nil {
		return 0
	}
	if id, ok := t.byName[name]; ok {
		return id
	}
	id := TrackID(len(t.names))
	t.names = append(t.names, name)
	t.byName[name] = id
	return id
}

// Span records a complete span of durPs picoseconds starting at
// startPs.
func (t *Tracer) Span(track TrackID, name string, startPs, durPs int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Kind: KindSpan, Track: track, Name: name, AtPs: startPs, DurPs: durPs})
}

// Instant records a point event — a fault firing, a breaker flip, a
// reshard — at atPs.
func (t *Tracer) Instant(track TrackID, name string, atPs int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Kind: KindInstant, Track: track, Name: name, AtPs: atPs})
}

// Counter records a sampled value at atPs; Perfetto renders successive
// samples of one (track, name) as a stepped area chart.
func (t *Tracer) Counter(track TrackID, name string, atPs int64, v float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Kind: KindCounter, Track: track, Name: name, AtPs: atPs, Value: v})
}

// AsyncBegin opens an overlapping span (a request lifecycle) keyed by
// id; AsyncEnd with the same name and id closes it. Unlike Span, many
// async spans of one name may be open on a track at once.
func (t *Tracer) AsyncBegin(track TrackID, name string, id uint64, atPs int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Kind: KindAsyncBegin, Track: track, Name: name, AtPs: atPs, ID: id})
}

// AsyncEnd closes the async span opened by AsyncBegin(name, id).
func (t *Tracer) AsyncEnd(track TrackID, name string, id uint64, atPs int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Kind: KindAsyncEnd, Track: track, Name: name, AtPs: atPs, ID: id})
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events exposes the recorded events in emission order. The slice is
// owned by the Tracer; callers must not modify it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Tracks returns the track names in creation order (index == TrackID).
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	return t.names
}

// Slice returns a new Tracer holding the events that overlap the
// simulated-time window [fromPs, toPs] — the flight recorder's scoped
// incident export. Every track is carried over (IDs stay valid), spans
// are kept whole whenever any part of them overlaps the window
// (timestamps are never clipped or rewritten, so the slice stays
// byte-faithful to the original), and emission order is preserved. On a
// nil Tracer it returns nil.
func (t *Tracer) Slice(fromPs, toPs int64) *Tracer {
	if t == nil {
		return nil
	}
	out := New()
	for _, name := range t.names {
		out.Track(name)
	}
	for _, e := range t.events {
		end := e.AtPs
		if e.Kind == KindSpan {
			end += e.DurPs
		}
		if end < fromPs || e.AtPs > toPs {
			continue
		}
		out.events = append(out.events, e)
	}
	return out
}
