package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/offload"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wrkgen"
)

// Span names, one per decorated seam.
const (
	spanRun     = "sim.RunUntil"
	spanSubmit  = "server.Submit"
	spanProcess = "offload.Process"
	spanNext    = "workload.NextRequest"
)

// recorder keeps a traced repetition's host-time spans in memory. Spans
// nest strictly: every decorated seam runs on one goroutine at a time (the
// sharded engine's front-end shard runs while the bench's own RunUntil
// call waits), so an open-span stack gives each span its parent.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
}

type span struct {
	name       string
	start, end int64 // host ns since t0
	parent     int32 // index of the enclosing span; -1 at the root
}

func (r *recorder) begin(name string) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0).Nanoseconds(), parent: parent})
	i := int32(len(r.spans) - 1)
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	r.spans[i].end = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// runUntil is the bench's own RunUntil call, traced when r is non-nil.
func (r *recorder) runUntil(in *instance, ps int64) {
	if r == nil {
		in.eng.RunUntil(ps)
		return
	}
	i := r.begin(spanRun)
	in.eng.RunUntil(ps)
	r.end(i)
}

// hooks returns the decorators that record a span around every call
// through a seam; a nil recorder decorates nothing.
func (r *recorder) hooks() hooks {
	if r == nil {
		return hooks{}
	}
	return hooks{
		backend: func(b offload.Backend, _ *sim.System) offload.Backend { return tracedBackend{b, r} },
		source:  func(s server.WorkloadSource) server.WorkloadSource { return tracedSource{s, r} },
		target:  func(t wrkgen.Target) wrkgen.Target { return tracedTarget{t, r} },
	}
}

type tracedBackend struct {
	offload.Backend
	r *recorder
}

// Process implements offload.Backend.
func (b tracedBackend) Process(u offload.ULP, coreID int, conn *offload.Conn, n int) (offload.Result, error) {
	i := b.r.begin(spanProcess)
	res, err := b.Backend.Process(u, coreID, conn, n)
	b.r.end(i)
	return res, err
}

type tracedSource struct {
	next server.WorkloadSource
	r    *recorder
}

// NextRequest implements server.WorkloadSource.
func (s tracedSource) NextRequest(connID int) server.RequestSpec {
	i := s.r.begin(spanNext)
	spec := s.next.NextRequest(connID)
	s.r.end(i)
	return spec
}

type tracedTarget struct {
	next wrkgen.Target
	r    *recorder
}

// Submit implements wrkgen.Target.
func (t tracedTarget) Submit(connID int, done func()) {
	i := t.r.begin(spanSubmit)
	t.next.Submit(connID, done)
	t.r.end(i)
}

// layerTimes are one traced repetition's host times per layer. A span's
// self time is its duration minus its child spans' durations.
type layerTimes struct {
	runNs     int64
	selfNs    map[string]int64
	processUs []float64 // each Process call
	submitUs  []float64 // each Submit call's self time
}

func (r *recorder) layerTimes() layerTimes {
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	lt := layerTimes{selfNs: map[string]int64{}}
	for i, s := range r.spans {
		d := s.end - s.start
		self := d - children[i]
		lt.selfNs[s.name] += self
		switch s.name {
		case spanRun:
			lt.runNs += d
		case spanProcess:
			lt.processUs = append(lt.processUs, float64(d)/1e3)
		case spanSubmit:
			lt.submitUs = append(lt.submitUs, float64(self)/1e3)
		}
	}
	return lt
}

// writePerfetto writes the spans as Perfetto trace_event JSON on a single
// "host" track. The tracer's timestamps are picoseconds, so host
// nanoseconds are scaled by 1000: viewers and tracestat then show real
// host time.
func (r *recorder) writePerfetto(path string) error {
	tr := telemetry.New()
	host := tr.Track("host")
	for _, s := range r.spans {
		tr.Span(host, s.name, s.start*1000, (s.end-s.start)*1000)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
