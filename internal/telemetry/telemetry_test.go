package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// A nil Tracer must absorb every call without panicking or allocating —
// that is the whole zero-overhead-when-disabled contract.
func TestNilTracerIsFreeAndSafe(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("x")
	if tk != 0 {
		t.Fatalf("nil Track = %d, want 0", tk)
	}
	tr.Span(tk, "s", 0, 10)
	tr.Instant(tk, "i", 5)
	tr.Counter(tk, "c", 5, 1.5)
	tr.AsyncBegin(tk, "a", 1, 0)
	tr.AsyncEnd(tk, "a", 1, 10)
	if tr.Len() != 0 || tr.Events() != nil || tr.Tracks() != nil {
		t.Fatal("nil tracer reported recorded state")
	}
	for _, fn := range map[string]func(){
		"span":    func() { tr.Span(tk, "s", 0, 10) },
		"instant": func() { tr.Instant(tk, "i", 5) },
		"counter": func() { tr.Counter(tk, "c", 5, 1.5) },
		"track":   func() { tr.Track("x") },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Fatalf("nil tracer allocates %v/op", a)
		}
	}
}

func TestTrackIdempotent(t *testing.T) {
	tr := New()
	a := tr.Track("engine")
	b := tr.Track("mem")
	if a2 := tr.Track("engine"); a2 != a {
		t.Fatalf("Track(engine) = %d then %d", a, a2)
	}
	if a == b {
		t.Fatal("distinct names share a TrackID")
	}
	if got := tr.Tracks(); len(got) != 2 || got[a] != "engine" || got[b] != "mem" {
		t.Fatalf("Tracks() = %v", got)
	}
}

func TestEventsRecordInEmissionOrder(t *testing.T) {
	tr := New()
	tk := tr.Track("t")
	tr.Span(tk, "b", 20, 5)
	tr.Span(tk, "a", 10, 5) // out of time order on purpose
	tr.Instant(tk, "i", 1)
	ev := tr.Events()
	if len(ev) != 3 || ev[0].Name != "b" || ev[1].Name != "a" || ev[2].Name != "i" {
		t.Fatalf("events reordered: %+v", ev)
	}
}

// The golden file pins the exporter's byte layout: every Perfetto phase
// the simulator emits, metadata tracks, the ps→µs timestamp format, and
// name escaping. Regenerate with `go test ./internal/telemetry/ -run
// TestPerfettoGolden -update` and eyeball the diff.
func TestPerfettoGolden(t *testing.T) {
	tr := New()
	eng := tr.Track("engine")
	mem := tr.Track("mem/rank0")
	tr.Span(eng, "run", 0, 2_000_000)
	tr.Span(mem, "drain", 1_234_567, 89_012)
	tr.Instant(mem, "ALERT_N", 1_500_000)
	tr.Counter(mem, "rdCAS", 2_000_000, 3)
	tr.AsyncBegin(eng, "req", 42, 100)
	tr.AsyncEnd(eng, "req", 42, 1_999_900)
	tr.Instant(eng, "quote\"back\\slash", 7)

	got := tr.PerfettoJSON()
	path := filepath.Join("testdata", "golden.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace JSON diverged from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Same events in, same bytes out — the exporter has no hidden state.
func TestPerfettoReproducible(t *testing.T) {
	build := func() []byte {
		tr := New()
		a := tr.Track("a")
		for i := int64(0); i < 100; i++ {
			tr.Span(a, "s", i*10, 5)
			tr.Counter(a, "c", i*10, float64(i)/3)
		}
		return tr.PerfettoJSON()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two identical builds exported different bytes")
	}
}

// Slice keeps every event overlapping the window — spans whole, with
// original timestamps — carries all tracks over, and preserves emission
// order.
func TestTracerSlice(t *testing.T) {
	tr := New()
	a := tr.Track("a")
	b := tr.Track("b")
	tr.Span(a, "before", 0, 50)           // ends at 50 < from: dropped
	tr.Span(a, "straddle-in", 80, 40)     // ends inside window: kept whole
	tr.Instant(b, "inside", 150)          // kept
	tr.Counter(b, "c", 190, 2)            // kept
	tr.Span(a, "straddle-out", 195, 1000) // starts inside: kept whole
	tr.Instant(b, "after", 201)           // starts past to: dropped

	s := tr.Slice(100, 200)
	if got := s.Tracks(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("slice tracks = %v, want [a b]", got)
	}
	ev := s.Events()
	names := make([]string, len(ev))
	for i, e := range ev {
		names[i] = e.Name
	}
	want := []string{"straddle-in", "inside", "c", "straddle-out"}
	if len(names) != len(want) {
		t.Fatalf("slice events = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("slice events = %v, want %v", names, want)
		}
	}
	if ev[0].AtPs != 80 || ev[0].DurPs != 40 {
		t.Fatalf("straddling span rewritten: %+v", ev[0])
	}
	var nilTr *Tracer
	if nilTr.Slice(0, 100) != nil {
		t.Fatal("nil Slice returned a tracer")
	}
}

func TestRegistryOrderAndText(t *testing.T) {
	r := NewRegistry()
	r.Register("b", CollectorFunc(func(emit func(Sample)) {
		emit(Sample{Name: "z", Value: 1})
		emit(Sample{Name: "a", Value: 0.5})
	}))
	r.Register("", CollectorFunc(func(emit func(Sample)) {
		emit(Sample{Name: "bare", Value: 3})
	}))
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "b.z" || snap[1].Name != "b.a" || snap[2].Name != "bare" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "b.z 1\nb.a 0.5\nbare 3\n"
	if buf.String() != want {
		t.Fatalf("WriteText = %q, want %q", buf.String(), want)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Register("x", CollectorFunc(func(func(Sample)) {}))
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced samples")
	}
}

// An async span left open at engine drain must get a synthetic end at
// the trace's end timestamp so viewers don't render it unterminated.
func TestPerfettoSyntheticAsyncEnd(t *testing.T) {
	tr := New()
	req := tr.Track("requests")
	eng := tr.Track("engine")
	tr.AsyncBegin(req, "req", 1, 100)
	tr.AsyncEnd(req, "req", 1, 500)
	tr.AsyncBegin(req, "req", 2, 300) // never closed: in flight at drain
	tr.Span(eng, "run", 0, 2_000)     // trace end = 2000ps = 0.002us

	got := string(tr.PerfettoJSON())
	if !json.Valid([]byte(got)) {
		t.Fatalf("exporter produced invalid JSON:\n%s", got)
	}
	ends := strings.Count(got, `"ph":"e"`)
	if ends != 2 {
		t.Fatalf("want 2 async ends (1 real + 1 synthetic), got %d:\n%s", ends, got)
	}
	if !strings.Contains(got, `"ph":"e","id":"0x2","pid":1,"tid":1,"ts":0.002000}`) {
		t.Fatalf("synthetic end for id 2 missing or not at trace end:\n%s", got)
	}
	// A balanced trace must not grow synthetic events.
	tr2 := New()
	r2 := tr2.Track("requests")
	tr2.AsyncBegin(r2, "req", 7, 10)
	tr2.AsyncEnd(r2, "req", 7, 20)
	if n := strings.Count(string(tr2.PerfettoJSON()), `"ph":"e"`); n != 1 {
		t.Fatalf("balanced trace exported %d ends, want 1", n)
	}
}

// Reused async ids (sequential request slots) must only synthesize ends
// for genuinely open spans, not confuse begin/end pairing.
func TestPerfettoSyntheticAsyncEndReusedID(t *testing.T) {
	tr := New()
	req := tr.Track("requests")
	tr.AsyncBegin(req, "req", 1, 0)
	tr.AsyncEnd(req, "req", 1, 10)
	tr.AsyncBegin(req, "req", 1, 20) // same id, second lifetime, unclosed
	got := string(tr.PerfettoJSON())
	if !json.Valid([]byte(got)) {
		t.Fatalf("invalid JSON:\n%s", got)
	}
	if n := strings.Count(got, `"ph":"e"`); n != 2 {
		t.Fatalf("want 2 ends (1 real + 1 synthetic), got %d:\n%s", n, got)
	}
}

// A tracer that recorded nothing must still export a valid (and
// minimal) JSON document.
func TestPerfettoEmptyTrace(t *testing.T) {
	for name, tr := range map[string]*Tracer{"fresh": New(), "nil": nil} {
		got := tr.PerfettoJSON()
		if want := "{\"traceEvents\":[]}\n"; string(got) != want {
			t.Fatalf("%s tracer: empty export = %q, want %q", name, got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("%s tracer: empty export is invalid JSON", name)
		}
	}
	// A tracer with tracks but no events keeps the metadata preamble and
	// stays valid.
	tr := New()
	tr.Track("engine")
	if got := tr.PerfettoJSON(); !json.Valid(got) || !bytes.Contains(got, []byte("thread_name")) {
		t.Fatalf("track-only export wrong: %s", got)
	}
}
