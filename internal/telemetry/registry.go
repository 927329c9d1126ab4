// The metrics registry: one named path through which every aggregate —
// server metrics, device/driver/controller stats, fleet totals,
// degradation ladders — reports, replacing per-command formatting code.

package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Sample is one named point-in-time measurement.
type Sample struct {
	Name  string
	Value float64
}

// Collector is anything that can report itself as samples. Aggregates
// across the stack (stats.Degradation, core.DeviceStats, fleet totals,
// server metrics, ...) implement it so commands print them all through
// Registry.WriteText.
type Collector interface {
	Collect(emit func(Sample))
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(emit func(Sample))

// Collect calls f.
func (f CollectorFunc) Collect(emit func(Sample)) { f(emit) }

// Registry holds named collectors in registration order, which is the
// order Snapshot and WriteText report in — deterministic by
// construction, no map iteration. Register and Snapshot are safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	prefixes []string
	cs       []Collector

	// SnapshotInto scratch, guarded by mu: a reusable emit closure plus
	// a per-prefix full-name cache so steady-state snapshots allocate
	// nothing — the obs scraper reads the registry every few hundred
	// simulated microseconds, and per-tick garbage would dominate.
	emit      func(Sample)
	out       []Sample
	curPrefix string
	names     map[string]map[string]string // prefix -> bare name -> full name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector under a name prefix ("" for none). Sample
// names become "prefix.name".
func (r *Registry) Register(prefix string, c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.prefixes = append(r.prefixes, prefix)
	r.cs = append(r.cs, c)
	r.mu.Unlock()
}

// Snapshot collects every registered collector once, in registration
// order.
func (r *Registry) Snapshot() []Sample {
	return r.SnapshotInto(nil)
}

// SnapshotInto is Snapshot reusing the caller's sample slice: buf is
// truncated and refilled, growing only until it fits the sample set, so
// a caller that feeds the previous result back in (the obs scraper,
// once per scrape tick) reaches a 0 allocs/op steady state. Full names
// ("prefix.name") are interned in a per-prefix cache instead of being
// re-concatenated every call. Collectors run under the registry lock:
// a Collect implementation must not call back into this Registry.
func (r *Registry) SnapshotInto(buf []Sample) []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.emit == nil {
		r.names = map[string]map[string]string{}
		r.emit = func(s Sample) {
			if r.curPrefix != "" {
				byBare := r.names[r.curPrefix]
				if byBare == nil {
					byBare = map[string]string{}
					r.names[r.curPrefix] = byBare
				}
				full, ok := byBare[s.Name]
				if !ok {
					full = r.curPrefix + "." + s.Name
					byBare[s.Name] = full
				}
				s.Name = full
			}
			r.out = append(r.out, s)
		}
	}
	r.out = buf[:0]
	for i, c := range r.cs {
		r.curPrefix = r.prefixes[i]
		c.Collect(r.emit)
	}
	out := r.out
	r.out = nil // don't pin the caller's backing array past the call
	return out
}

// WriteText writes the snapshot as "name value" lines. Values format
// with strconv 'g'/-1, the shortest representation that round-trips, so
// the text export is byte-stable across runs.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, strconv.FormatFloat(s.Value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}
