// The flight recorder: a bounded ring of recent operational notes
// (alert transitions, autoscaler actions, injected faults, breaker
// trips) plus the incident dumper — when a rule fires it freezes a
// scoped bundle: a ps-windowed trace slice and a canonical text report
// correlating everything that happened in the lookback window.

package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// Note is one recorded operational event.
type Note struct {
	AtPs int64
	Kind string // "alert", "action", "fault", "admin", ...
	Text string
}

func (n Note) String() string {
	return fmt.Sprintf("%d %s %s", n.AtPs, n.Kind, n.Text)
}

// The flight recorder's bounds.
const (
	// noteCap bounds the note ring.
	noteCap = 512
	// maxIncidents bounds captured bundles; later firings only count
	// Dropped.
	maxIncidents = 4
)

// Recorder is the flight recorder. It is fed from inside engine events
// (scrape ticks, fault closures, autoscaler hooks), so insertion order
// is simulated-time order and everything it renders is deterministic.
type Recorder struct {
	// lookbackPs is the incident window: a bundle covers
	// [firingPs-lookbackPs, firingPs].
	lookbackPs int64
	notes      [noteCap]Note // ring
	head       int
	n          int

	// Incidents are the captured bundles, in firing order.
	Incidents []Incident
	// Dropped counts firings past maxIncidents.
	Dropped int
}

// NewRecorder builds a recorder whose incident bundles look back
// lookbackPs; zero selects 2ms.
func NewRecorder(lookbackPs int64) *Recorder {
	if lookbackPs <= 0 {
		lookbackPs = 2_000_000_000 // 2ms
	}
	return &Recorder{lookbackPs: lookbackPs}
}

// Note appends an operational event to the ring (oldest dropped when
// full). Nil recorders absorb the call so call sites need no guards.
func (r *Recorder) Note(atPs int64, kind, text string) {
	if r == nil {
		return
	}
	if r.n < len(r.notes) {
		r.notes[(r.head+r.n)%len(r.notes)] = Note{AtPs: atPs, Kind: kind, Text: text}
		r.n++
		return
	}
	r.notes[r.head] = Note{AtPs: atPs, Kind: kind, Text: text}
	r.head = (r.head + 1) % len(r.notes)
}

// noteAt returns the i-th retained note, oldest first.
func (r *Recorder) noteAt(i int) Note { return r.notes[(r.head+i)%len(r.notes)] }

// Incident is one captured bundle.
type Incident struct {
	AtPs   int64  // firing instant
	Rule   string // the rule that fired
	FromPs int64  // window start (AtPs minus the lookback, floored at 0)
	// Report is the canonical text report: the correlated timeline of
	// notes in the window plus a last-value summary of every series.
	Report string
	// Trace is the ps-windowed slice of the run's tracer (nil when the
	// run traced nothing).
	Trace *telemetry.Tracer
}

// Canonical renders the byte-compared bundle artifact: the text report
// plus a digest of the Perfetto trace slice (the slice itself can be
// megabytes; the digest pins it without bloating the comparison).
func (in Incident) Canonical() string {
	var b strings.Builder
	b.WriteString(in.Report)
	if in.Trace != nil {
		sum := sha256.Sum256(in.Trace.PerfettoJSON())
		fmt.Fprintf(&b, "trace_sha256 %s\n", hex.EncodeToString(sum[:]))
	}
	return b.String()
}

// trigger captures an incident for a rule that just fired. The scraper
// calls it from inside the scrape tick, after appending the firing
// transition to the note ring, so the bundle's timeline includes the
// triggering alert itself.
func (r *Recorder) trigger(atPs int64, rule string, sc *Scraper) {
	if r == nil {
		return
	}
	if len(r.Incidents) >= maxIncidents {
		r.Dropped++
		return
	}
	from := atPs - r.lookbackPs
	if from < 0 {
		from = 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "incident rule=%s at=%d window=[%d,%d]\n", rule, atPs, from, atPs)
	b.WriteString("--- timeline ---\n")
	for i := 0; i < r.n; i++ {
		n := r.noteAt(i)
		if n.AtPs < from || n.AtPs > atPs {
			continue
		}
		b.WriteString(n.String())
		b.WriteByte('\n')
	}
	b.WriteString("--- series ---\n")
	sc.Store().Each(func(se *Series) {
		fmt.Fprintf(&b, "%s last=%g points=%d window_max=%g\n",
			se.Name(), se.LastValue(), se.Len(), se.MaxOver(atPs, r.lookbackPs))
	})
	in := Incident{AtPs: atPs, Rule: rule, FromPs: from, Report: b.String()}
	if tr := sc.cfg.Tracer; tr != nil {
		in.Trace = tr.Slice(from, atPs)
	}
	r.Incidents = append(r.Incidents, in)
}
