package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// buildTrace assembles a small, fully-known trace: two memory ranks, a
// worker, a nic, and two request lifecycles.
func buildTrace() *telemetry.Tracer {
	tr := telemetry.New()
	eng := tr.Track("engine")
	m0 := tr.Track("mem/rank0")
	m1 := tr.Track("mem/rank1")
	wk := tr.Track("worker0")
	nic := tr.Track("nic")
	req := tr.Track("requests")

	tr.Span(eng, "run", 0, 10_000) // excluded from critpath by default
	tr.Span(m0, "drain", 100, 1_000)
	tr.Span(m0, "CompCpy", 200, 300) // nested inside the drain window
	tr.Span(m1, "drain", 4_000, 500)
	tr.Instant(m0, "ALERT_N", 600)

	// Request 1: parse 100..600, ulp 700..1_700, tx 1_700..1_900.
	tr.AsyncBegin(req, "req", 1, 0)
	tr.Span(wk, "parse", 100, 500)
	tr.Span(wk, "ulp", 700, 1_000)
	tr.Span(nic, "tx", 1_700, 200)
	tr.AsyncEnd(req, "req", 1, 2_000)

	// Request 2: only ulp work, mostly waiting.
	tr.AsyncBegin(req, "req", 2, 5_000)
	tr.Span(wk, "ulp", 5_500, 200)
	tr.AsyncEnd(req, "req", 2, 7_000)
	return tr
}

func TestProfileTreeAttribution(t *testing.T) {
	p := FromTracer(buildTrace())
	if p.EndPs != 10_000 {
		t.Fatalf("EndPs = %d, want 10000", p.EndPs)
	}
	if p.Tracks != 6 || p.Spans != 8 || p.Instants != 1 {
		t.Fatalf("counts = %d/%d/%d", p.Tracks, p.Spans, p.Instants)
	}
	// mem is structural: drains sum to 1500; CompCpy nests inside rank0's
	// drain so the drain keeps 700 self.
	mem := findNode(t, p.Root, "mem")
	if mem.TotalPs != 1_500 || mem.SelfPs != 0 {
		t.Fatalf("mem total/self = %d/%d", mem.TotalPs, mem.SelfPs)
	}
	drain0 := findNode(t, mem, "rank0", "drain")
	if drain0.TotalPs != 1_000 || drain0.SelfPs != 700 {
		t.Fatalf("rank0 drain total/self = %d/%d", drain0.TotalPs, drain0.SelfPs)
	}
	cpy := findNode(t, drain0, "CompCpy")
	if cpy.TotalPs != 300 || cpy.SelfPs != 300 || cpy.Count != 1 {
		t.Fatalf("CompCpy = %+v", cpy)
	}
	// worker0 is a span container: parse 500 + ulp 1200.
	if wk := findNode(t, p.Root, "worker0"); wk.TotalPs != 1_700 {
		t.Fatalf("worker0 total = %d", wk.TotalPs)
	}
	if ulp := findNode(t, p.Root, "worker0", "ulp"); ulp.Count != 2 || ulp.TotalPs != 1_200 {
		t.Fatalf("ulp = %+v", ulp)
	}
	if alert := findNode(t, mem, "rank0", "ALERT_N"); alert.Count != 1 || alert.TotalPs != 0 {
		t.Fatalf("instant node = %+v", alert)
	}
}

func findNode(t *testing.T, n *Node, path ...string) *Node {
	t.Helper()
	for _, name := range path {
		var next *Node
		for _, c := range n.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		if next == nil {
			t.Fatalf("node %q not found under %q", name, n.Name)
		}
		n = next
	}
	return n
}

// The tree text must not depend on event emission order: shuffling the
// span emission sequence (same simulated timestamps) renders the same
// bytes.
func TestProfileTreeDeterministicUnderEmissionOrder(t *testing.T) {
	base := buildTrace()
	want := renderTree(t, FromTracer(base))

	// Re-emit the same events in a different order.
	events := base.Events()
	shuffled := make([]telemetry.Event, 0, len(events))
	for i := len(events) - 1; i >= 0; i-- {
		shuffled = append(shuffled, events[i])
	}
	got := renderTree(t, FromEvents(base.Tracks(), shuffled))
	if got != want {
		t.Fatalf("tree differs under emission order:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func renderTree(t *testing.T, p *Profile) string {
	t.Helper()
	var b strings.Builder
	if err := p.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWriteTopRanksBySelfTime(t *testing.T) {
	p := FromTracer(buildTrace())
	var b strings.Builder
	if err := p.WriteTop(&b, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("top output:\n%s", b.String())
	}
	// Hottest self-time path is the engine's run span (10000ps).
	if !strings.Contains(lines[1], "engine/run") {
		t.Fatalf("hottest row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "worker0/ulp") {
		t.Fatalf("second row = %q", lines[2])
	}
}

func TestCritPathAttribution(t *testing.T) {
	tr := buildTrace()
	cp := AnalyzeTracer(tr, Options{})
	if len(cp.Requests) != 2 {
		t.Fatalf("requests = %d", len(cp.Requests))
	}
	r1 := cp.Requests[0]
	if r1.ID != 1 || r1.LatencyPs() != 2_000 {
		t.Fatalf("r1 = %+v", r1)
	}
	// Window [0,2000): parse 500, ulp 1000, tx 200, drain [100,1100)=1000,
	// CompCpy 300 (inside drain). Coverage union: drain+parse cover
	// [100,1100), ulp extends to 1700, tx to 1900 → covered 1800, wait 200.
	want := map[string]int64{
		"parse": 500, "ulp": 1_000, "tx": 200,
		"drain": 1_000, "CompCpy": 300, WaitStage: 200,
	}
	got := map[string]int64{}
	for _, s := range r1.Stages {
		got[s.Name] = s.Ps
	}
	for n, ps := range want {
		if got[n] != ps {
			t.Fatalf("r1 stage %s = %d, want %d (all: %v)", n, got[n], ps, got)
		}
	}
	if r1.Dominant != "drain" && r1.Dominant != "ulp" {
		// drain and ulp tie at 1000; lexicographic tie-break picks drain.
		t.Fatalf("r1 dominant = %q", r1.Dominant)
	}
	if r1.Dominant != "drain" {
		t.Fatalf("tie-break: dominant = %q, want drain", r1.Dominant)
	}

	r2 := cp.Requests[1]
	// Window [5000,7000): ulp 200, wait 1800.
	if r2.WaitPs != 1_800 || r2.Dominant != WaitStage {
		t.Fatalf("r2 = %+v", r2)
	}

	// Fleet table: blocked sums across requests, engine's run excluded.
	for _, s := range cp.Stages {
		if s.Name == "run" {
			t.Fatal("engine container span leaked into the stage table")
		}
	}
	if cp.Stages[0].Name != WaitStage || cp.Stages[0].BlockedPs != 2_000 {
		t.Fatalf("top stage = %+v", cp.Stages[0])
	}
}

func TestCritPathWindowFilter(t *testing.T) {
	cp := AnalyzeTracer(buildTrace(), Options{FromPs: 4_000, ToPs: 8_000})
	if len(cp.Requests) != 1 || cp.Requests[0].ID != 2 {
		t.Fatalf("windowed requests = %+v", cp.Requests)
	}
}

func TestCritPathDeterministicTable(t *testing.T) {
	render := func() string {
		cp := AnalyzeTracer(buildTrace(), Options{})
		var b strings.Builder
		if err := cp.WriteTable(&b); err != nil {
			t.Fatal(err)
		}
		if err := cp.WriteWaterfall(&b, 0); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("table not reproducible:\n%s\nvs\n%s", a, b)
	}
}

func TestPercentileLatency(t *testing.T) {
	cp := AnalyzeTracer(buildTrace(), Options{})
	if p := cp.PercentileLatencyPs(50); p != 2_000 {
		t.Fatalf("p50 = %d", p)
	}
	if p := cp.PercentileLatencyPs(99); p != 2_000 {
		t.Fatalf("p99 = %d", p)
	}
	if p := (&CritPath{}).PercentileLatencyPs(99); p != 0 {
		t.Fatalf("empty p99 = %d", p)
	}
}

// Round trip: export a trace to Perfetto JSON and read it back; every
// track and event must survive byte-exactly (balanced async pairs, so
// no synthetic ends are added).
func TestReadPerfettoRoundTrip(t *testing.T) {
	tr := buildTrace()
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	tracks, events, err := ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantTracks := tr.Tracks()
	if len(tracks) != len(wantTracks) {
		t.Fatalf("tracks = %v, want %v", tracks, wantTracks)
	}
	for i := range tracks {
		if tracks[i] != wantTracks[i] {
			t.Fatalf("track %d = %q, want %q", i, tracks[i], wantTracks[i])
		}
	}
	wantEvents := tr.Events()
	if len(events) != len(wantEvents) {
		t.Fatalf("%d events, want %d", len(events), len(wantEvents))
	}
	for i := range events {
		if events[i] != wantEvents[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], wantEvents[i])
		}
	}
}

// A counter with a fractional value and a large timestamp must survive
// the decimal ps parse exactly.
func TestReadPerfettoPrecision(t *testing.T) {
	tr := telemetry.New()
	a := tr.Track("a")
	tr.Span(a, "s", 123_456_789_012_345, 1) // 123.456789012345 s in ps
	tr.Counter(a, "c", 7, 1.0/3.0)
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	_, events, err := ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].AtPs != 123_456_789_012_345 || events[0].DurPs != 1 {
		t.Fatalf("span round-trip = %+v", events[0])
	}
	if events[1].Value != 1.0/3.0 {
		t.Fatalf("counter value = %v", events[1].Value)
	}
}

// A tid the exporter cannot have written is an error, not a track: a
// thread_name tid of 2e8 once made the reader append 2e8 empty track
// names, and a span on tid 0 became Track -1 and panicked Analyze.
func TestReadPerfettoRejectsBadTid(t *testing.T) {
	for name, doc := range map[string]string{
		"thread_name tid past event count": `{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":1000,"args":{"name":"x"}}]}`,
		"thread_name tid 0":                `{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"x"}}]}`,
		"span tid 0":                       `{"traceEvents":[{"name":"s","ph":"X","pid":1,"tid":0,"ts":"1.000000","dur":"1.000000"}]}`,
		"negative tid":                     `{"traceEvents":[{"name":"s","ph":"i","pid":1,"tid":-3,"ts":"1.000000"}]}`,
		"span tid past event count":        `{"traceEvents":[{"name":"s","ph":"X","pid":1,"tid":1000,"ts":"1.000000","dur":"1.000000"}]}`,
	} {
		tracks, events, err := ReadPerfetto(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s: accepted (%d tracks, %d events)", name, len(tracks), len(events))
		}
	}
	// The exporter's own process_name line carries tid 0 and stays legal.
	ok := `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"p"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"a"}},` +
		`{"name":"s","ph":"X","pid":1,"tid":1,"ts":"1.000000","dur":"1.000000"}]}`
	if _, _, err := ReadPerfetto(strings.NewReader(ok)); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
}

// FuzzReadPerfetto feeds arbitrary documents through the reader and
// every decoded trace through the critical-path analyzer: malformed
// input is an error, never a panic or an unbounded track table.
func FuzzReadPerfetto(f *testing.F) {
	var buf bytes.Buffer
	if err := buildTrace().WritePerfetto(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tracks, events, err := ReadPerfetto(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(tracks) > len(data) {
			t.Fatalf("%d tracks from a %d-byte document", len(tracks), len(data))
		}
		Analyze(tracks, events, Options{})
		Analyze(tracks, events, Options{ShardAware: true})
	})
}

func TestPsFromMicros(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0.000001", 1, false},
		{"1.000000", 1_000_000, false},
		{"1.5", 1_500_000, false},
		{"2", 2_000_000, false},
		{"0.0000001", 0, true}, // sub-picosecond
		{"", 0, true},
		{"x.1", 0, true},
	}
	for _, c := range cases {
		got, err := psFromMicros(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Fatalf("psFromMicros(%q) = %d, %v; want %d, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

// An unclosed request in the export becomes a synthetic end at trace
// end; the reader then sees a balanced pair and the analyzer windows
// the request to the end of the trace.
func TestReadPerfettoSyntheticEndAnalyzable(t *testing.T) {
	tr := telemetry.New()
	req := tr.Track("requests")
	eng := tr.Track("engine")
	tr.AsyncBegin(req, "req", 9, 1_000)
	tr.Span(eng, "run", 0, 5_000)
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	tracks, events, err := ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cp := Analyze(tracks, events, Options{})
	if len(cp.Requests) != 1 || cp.Requests[0].EndPs != 5_000 {
		t.Fatalf("requests = %+v", cp.Requests)
	}
}

// The pprof export must be byte-deterministic and decodable: gzip
// wrapping a protobuf whose string table carries the component names.
func TestWritePprofDeterministicAndWellFormed(t *testing.T) {
	render := func() []byte {
		var b bytes.Buffer
		if err := FromTracer(buildTrace()).WritePprof(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("pprof export not byte-stable")
	}
	zr, err := gzip.NewReader(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sim_time", "nanoseconds", "CompCpy", "worker0", "drain"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("decoded profile missing %q", want)
		}
	}
}

// go tool pprof must accept the export — the whole point of emitting
// profile.proto. Skipped when the go tool is unavailable.
func TestGoToolPprofAcceptsExport(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	path := dir + "/sim.pb.gz"
	var b bytes.Buffer
	if err := FromTracer(buildTrace()).WritePprof(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top failed: %v\n%s", err, out)
	}
	for _, want := range []string{"sim_time", "run", "ulp"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("pprof -top output missing %q:\n%s", want, out)
		}
	}
}
