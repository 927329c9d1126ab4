// Command bench is the repository's benchmark. It measures how fast the
// simulator runs four serving workloads end to end, reports the modelled
// serving KPIs those runs produce, and checks the records the functional
// AES-GCM and deflate models emit against the standard library. With
// --trace 1 it reruns the workload with spans around the public seams
// between layers and reports per-layer metrics instead. See README.md.
//
//	bash bench/run.sh --workload tls4k-fleet4 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minReps is the fewest timed repetitions (cycles, when traced) per run,
// so every host metric is a median.
const minReps = 3

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "host seconds of timed repetitions")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	out := &printer{w: os.Stdout, prefix: fmt.Sprintf("seed=%d workload=%s", *seed, w.name)}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds, "bench/out", out)
	} else {
		res, err = runEndToEnd(w, *seed, *seconds, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printer writes the human-readable lines, each carrying the seed and
// the workload.
type printer struct {
	w      io.Writer
	prefix string
}

func (p *printer) printf(format string, args ...any) {
	fmt.Fprintf(p.w, p.prefix+" "+format+"\n", args...)
}

// rep is one timed repetition: a fresh build of the workload, then its
// warm-up and measured windows.
type rep struct {
	setupNs, runNs int64
	refNs          int64 // the reference loop's time just before the repetition
	events         uint64
	submitted      uint64
	failed         uint64
	model          model
	layers         counters
	allocBytes     uint64 // runtime.MemStats deltas over the run
	gcs            uint32
	liveHeap       uint64 // heap the simulation holds once the run ends
	epochs, sent   uint64 // sharded engine only
	peakInFlight   int    // open loop only
	backlog        int    // open loop: requests in flight at the horizon
}

// runRep builds w and runs it. A non-nil recorder decorates the seams and
// records spans; execWorkers sets the sharded engine's parallelism.
func runRep(w spec, seed int64, execWorkers int, rec *recorder) (rep, error) {
	par := 1
	if w.shards > 0 && execWorkers != 1 {
		par = runtime.GOMAXPROCS(0)
	}
	r := rep{refNs: refTime(par).Nanoseconds()}
	runtime.GC() // every repetition starts from the same heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heapBefore := m0.HeapAlloc
	t0 := time.Now()
	in, err := build(w, seed, rec.hooks(), execWorkers)
	if err != nil {
		return rep{}, err
	}
	r.setupNs = time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m0)
	if rec != nil {
		rec.t0 = time.Now()
	}
	t1 := time.Now()
	r.backlog = in.run(rec)
	r.runNs = time.Since(t1).Nanoseconds()
	runtime.ReadMemStats(&m1)
	r.allocBytes, r.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	r.events, r.submitted = in.eng.Processed(), in.client.submitted
	r.model, r.failed = in.collect()
	r.layers = in.counters()
	if in.sharded != nil {
		r.epochs, r.sent = in.sharded.Epochs(), in.sharded.Sent()
	}
	if in.open != nil {
		r.peakInFlight = in.open.PeakIn
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveHeap = m1.HeapAlloc - heapBefore
	runtime.KeepAlive(in)
	return r, nil
}

// calibrated converts a host time measured in r to seconds of the quiet
// reference host (calib.go).
func (r rep) calibrated(ns int64) float64 {
	return float64(ns) / 1e9 * float64(refNominal.Nanoseconds()) / float64(r.refNs)
}

func (r rep) simReqPerHostS() float64 { return float64(r.model.requests) / r.calibrated(r.runNs) }

// repeat calls one until at least minReps calls and seconds of host time
// have passed.
func repeat(seconds float64, one func() error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < seconds; i++ {
		if err := one(); err != nil {
			return err
		}
	}
	return nil
}

// runEndToEnd checks the workload's records, then times repetitions with
// tracing off and reports the end-to-end metrics.
func runEndToEnd(w spec, seed int64, seconds float64, out *printer) (result, error) {
	records, mismatch, err := verify(w, seed)
	if err != nil {
		return result{}, err
	}
	var reps []rep
	err = repeat(seconds, func() error {
		r, err := runRep(w, seed, 0, nil)
		if err == nil {
			reps = append(reps, r)
			out.printf("rep=%d setup_s=%.4f run_s=%.4f ref_s=%.4f requests=%d events=%d (host times uncalibrated)",
				len(reps), float64(r.setupNs)/1e9, float64(r.runNs)/1e9, float64(r.refNs)/1e9, r.model.requests, r.events)
		}
		return err
	})
	if err != nil {
		return result{}, err
	}
	res := newResult(w, records, mismatch, reps, out)
	md := reps[0].model
	out.printf("model_samples=%d", md.samples)
	res.add(out, "sim_req_per_host_s", "req/s", medianOf(reps, rep.simReqPerHostS))
	res.add(out, "host_ns_per_event", "ns", medianOf(reps, func(r rep) float64 { return r.calibrated(r.runNs) * 1e9 / float64(r.events) }))
	res.add(out, "setup_s", "s", medianOf(reps, func(r rep) float64 { return r.calibrated(r.setupNs) }))
	res.add(out, "live_heap_mb", "MB", medianOf(reps, func(r rep) float64 { return float64(r.liveHeap) / (1 << 20) }))
	out.printf("peak_rss_mb=%v MB", peakRSSMB())
	res.add(out, "model_rps", "req/s", md.rps)
	res.add(out, "model_p50_us", "us", md.p50us)
	res.add(out, "model_p99_us", "us", md.p99us)
	res.add(out, "model_cycles_per_byte", "cycles/B", md.cyclesPerByte)
	res.add(out, "model_dram_bytes_per_req", "B", md.dramBytesPerReq)
	return res, nil
}

// runTraced checks the workload's records, then alternates untraced and
// traced repetitions (and, on the sharded engine, serial-reference ones)
// and reports the per-layer metrics. It writes the first traced
// repetition's spans to <traceDir>/<workload>.trace.json.
func runTraced(w spec, seed int64, seconds float64, traceDir string, out *printer) (result, error) {
	records, mismatch, err := verify(w, seed)
	if err != nil {
		return result{}, err
	}
	var plain, traced, serial, all []rep
	var times []layerTimes
	var first *recorder
	err = repeat(seconds, func() error {
		u, err := runRep(w, seed, 0, nil)
		if err != nil {
			return err
		}
		rec := &recorder{}
		t, err := runRep(w, seed, 0, rec)
		if err != nil {
			return err
		}
		plain, traced, all = append(plain, u), append(traced, t), append(all, u, t)
		times = append(times, rec.layerTimes())
		if first == nil {
			first = rec
		}
		out.printf("cycle=%d untraced_run_s=%.4f traced_run_s=%.4f", len(plain),
			float64(u.runNs)/1e9, float64(t.runNs)/1e9)
		if w.shards > 0 {
			s, err := runRep(w, seed, 1, nil)
			if err != nil {
				return err
			}
			serial, all = append(serial, s), append(all, s)
			out.printf("cycle=%d serial_run_s=%.4f", len(serial), float64(s.runNs)/1e9)
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(traceDir, w.name+".trace.json")
	if err := first.writePerfetto(path); err != nil {
		return result{}, err
	}
	out.printf("trace=%s spans=%d", path, len(first.spans))
	micros, err := runMicros(seed)
	if err != nil {
		return result{}, err
	}
	res := newResult(w, records, mismatch, all, out)

	host := func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(times))
		for i, lt := range times {
			xs[i] = f(lt)
		}
		return median(xs)
	}
	share := func(name string) float64 {
		return host(func(lt layerTimes) float64 { return ratio(float64(lt.selfNs[name]), float64(lt.runNs)) })
	}
	res.add(out, "offload.process_share", "frac", share(spanProcess))
	res.add(out, "offload.process_us_p50", "us", host(func(lt layerTimes) float64 { return quantile(lt.processUs, 50) }))
	res.add(out, "offload.process_us_p99", "us", host(func(lt layerTimes) float64 { return quantile(lt.processUs, 99) }))
	res.add(out, "server.submit_self_share", "frac", share(spanSubmit))
	res.add(out, "server.submit_us_p50", "us", host(func(lt layerTimes) float64 { return quantile(lt.submitUs, 50) }))
	res.add(out, "workload.next_request_share", "frac", share(spanNext))
	res.add(out, "sim.self_share", "frac", share(spanRun))
	res.add(out, "trace_overhead_frac", "frac", 1-ratio(medianOf(traced, rep.simReqPerHostS), medianOf(plain, rep.simReqPerHostS)))

	// Counts are exact: every repetition of one seed reproduces them.
	r := plain[0]
	c := r.layers
	req := float64(r.submitted)
	speedup := 0.0
	if len(serial) > 0 {
		runS := func(r rep) float64 { return float64(r.runNs) }
		speedup = medianOf(serial, runS) / medianOf(plain, runS)
	}
	res.add(out, "sim.events_per_req", "events/req", ratio(float64(r.events), req))
	res.add(out, "sim.epochs_per_req", "epochs/req", ratio(float64(r.epochs), req))
	res.add(out, "sim.cross_shard_msgs_per_req", "msgs/req", ratio(float64(r.sent), req))
	res.add(out, "sim.shard_speedup", "x", speedup)
	res.add(out, "offload.fallback_frac", "frac", ratio(float64(c.fallbackChunks), float64(c.primaryChunks+c.fallbackChunks)))
	res.add(out, "fleet.sheds_per_kreq", "sheds/kreq", ratio(1000*float64(c.sheds), req))
	res.add(out, "fleet.descriptors_per_batch", "desc/batch", ratio(float64(c.descriptors), float64(c.batches)))
	res.add(out, "core.compcpy_per_req", "calls/req", ratio(float64(c.compcpy), req))
	res.add(out, "core.force_recycle_frac", "frac", ratio(float64(c.forceRecycles), float64(c.compcpy)))
	res.add(out, "core.self_recycle_frac", "frac", ratio(float64(c.selfRecycles), float64(c.linesFed)))
	res.add(out, "cache.llc_miss_rate", "frac", ratio(float64(c.llcMisses), float64(c.llcAccesses)))
	res.add(out, "memctrl.row_hit_rate", "frac", ratio(float64(c.rowHits), float64(c.rowAccesses)))
	res.add(out, "memctrl.drains_per_req", "drains/req", ratio(float64(c.drains), req))
	res.add(out, "wrkgen.peak_inflight", "req", float64(r.peakInFlight))
	res.add(out, "wrkgen.backlog", "req", float64(r.backlog))
	res.add(out, "runtime.alloc_bytes_per_req", "B/req", medianOf(plain, func(r rep) float64 { return ratio(float64(r.allocBytes), float64(r.submitted)) }))
	res.add(out, "runtime.gc_per_kreq", "gc/kreq", medianOf(plain, func(r rep) float64 { return ratio(1000*float64(r.gcs), float64(r.submitted)) }))
	for _, m := range micros {
		res.add(out, m.name+"_"+m.unit, m.unit, m.perOp)
	}
	for _, m := range micros {
		res.add(out, m.name+".allocs_per_op", "allocs/op", m.allocs)
	}
	return res, nil
}

// newResult sums the attempted and failed requests over reps and decides
// correctness: every checked record round-tripped (and some were checked,
// where the seam exists) and every repetition reproduced the first one's
// model KPIs exactly.
func newResult(w spec, records int, mismatch error, reps []rep, out *printer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	out.printf("verified_records=%d", records)
	if mismatch != nil {
		out.printf("check=failed record_mismatch=%q", mismatch.Error())
		res.Correct = false
	} else if records == 0 && w.shards == 0 {
		out.printf("check=failed no records were checked")
		res.Correct = false
	}
	for _, r := range reps {
		res.Attempted += r.submitted
		res.Failed += r.failed
		if r.model != reps[0].model {
			out.printf("check=failed model KPIs differ between repetitions of one seed: %+v vs %+v", r.model, reps[0].model)
			res.Correct = false
		}
	}
	return res
}

func (res *result) add(out *printer, name, unit string, v float64) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
	out.printf("%s=%v %s", name, v, unit)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank q-th percentile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q/100)) - 1
	return s[max(i, 0)]
}
