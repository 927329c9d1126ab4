// Command tracestat analyzes simulator traces offline and runs the KPI
// regression bench. It is the CLI over internal/profile: feed it the
// Perfetto JSON that `smartdimm-sim -trace` wrote and it answers where
// the simulated time went and what bounded request latency — without
// re-running the simulation.
//
// Trace analysis (every view is byte-deterministic for a given trace):
//
//	tracestat -trace run.trace.json                 # profile tree + critical-path table
//	tracestat -trace run.trace.json -top 15         # flat hottest components
//	tracestat -trace run.trace.json -waterfall 5    # first 5 request waterfalls
//	tracestat -trace run.trace.json -pprof sim.pb.gz
//	go tool pprof -top sim.pb.gz                    # standard tooling on simulated time
//	tracestat -trace run.trace.json -series         # every counter sample as CSV (plot-ready)
//
// KPI regression bench (what `./ci.sh bench` runs):
//
//	tracestat -bench -baseline BENCH_baseline.json -out BENCH_results.json
//	tracestat -bench -update-baseline               # re-pin after an intended change
//
// The bench runs the pinned deterministic scenarios from
// internal/profile, writes the fresh KPIs to -out, and exits nonzero if
// any baseline KPI drifted beyond -tol.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

func main() {
	tracePath := flag.String("trace", "", "Perfetto trace JSON to analyze (from smartdimm-sim -trace)")
	tree := flag.Bool("tree", false, "print only the hierarchical profile tree")
	top := flag.Int("top", 0, "print the N hottest components by self time (0 = off)")
	critpath := flag.Bool("critpath", false, "print only the critical-path stage table")
	waterfall := flag.Int("waterfall", 0, "print per-request waterfalls for the first N requests")
	pprofPath := flag.String("pprof", "", "write the profile as gzipped pprof protobuf to this file")
	fromPs := flag.Int64("from-ps", 0, "critical path: ignore requests starting before this simulated time")
	toPs := flag.Int64("to-ps", 0, "critical path: ignore requests ending after this simulated time")
	shards := flag.Bool("shards", false, "critical path: merged multi-shard trace (per-shard attribution, shared fe/rt planes)")
	series := flag.Bool("series", false, "dump every counter sample in the trace as CSV (at_ps,track,name,value) — includes the scraped obs series of incident trace slices")

	bench := flag.Bool("bench", false, "run the pinned KPI regression scenarios instead of analyzing a trace")
	baseline := flag.String("baseline", "BENCH_baseline.json", "bench: committed baseline to compare against")
	out := flag.String("out", "BENCH_results.json", "bench: write fresh KPI results here")
	tol := flag.Float64("tol", 0.05, "bench: relative KPI drift tolerance")
	updateBaseline := flag.Bool("update-baseline", false, "bench: rewrite the baseline from this run instead of gating")
	flag.Parse()

	switch {
	case *bench:
		if err := runBench(*baseline, *out, *tol, *updateBaseline); err != nil {
			fatal(err)
		}
	case *tracePath != "":
		if err := runTrace(*tracePath, *tree, *top, *critpath, *waterfall, *pprofPath, *fromPs, *toPs, *shards, *series); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runTrace loads one trace and renders the requested views. With no
// view flags, the profile tree and the critical-path table both print —
// the "what happened in this run" default.
func runTrace(path string, tree bool, top int, critpath bool, waterfall int, pprofPath string, fromPs, toPs int64, shards, series bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tracks, events, err := profile.ReadPerfetto(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	wantAll := !tree && top == 0 && !critpath && waterfall == 0 && pprofPath == "" && !series
	if series {
		if err := writeSeriesCSV(os.Stdout, tracks, events, fromPs, toPs); err != nil {
			return err
		}
	}
	w := os.Stdout
	if tree || wantAll {
		p := profile.FromEvents(tracks, events)
		if err := p.WriteTree(w); err != nil {
			return err
		}
	}
	if top > 0 {
		p := profile.FromEvents(tracks, events)
		if err := p.WriteTop(w, top); err != nil {
			return err
		}
	}
	if critpath || waterfall > 0 || wantAll {
		cp := profile.Analyze(tracks, events, profile.Options{FromPs: fromPs, ToPs: toPs, ShardAware: shards})
		if critpath || wantAll {
			if wantAll {
				fmt.Fprintln(w)
			}
			if err := cp.WriteTable(w); err != nil {
				return err
			}
		}
		if waterfall > 0 {
			if err := cp.WriteWaterfall(w, waterfall); err != nil {
				return err
			}
		}
	}
	if pprofPath != "" {
		p := profile.FromEvents(tracks, events)
		f, err := os.Create(pprofPath)
		if err != nil {
			return err
		}
		if err := p.WritePprof(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "pprof profile: %s (go tool pprof -top %s)\n", pprofPath, pprofPath)
	}
	return nil
}

// writeSeriesCSV dumps the trace's counter samples — the scraped obs
// series a `-scrape-us` run embeds, plus any model counters — in event
// order as plot-ready CSV. -from-ps/-to-ps clip the dump.
func writeSeriesCSV(w io.Writer, tracks []string, events []telemetry.Event, fromPs, toPs int64) error {
	if _, err := fmt.Fprintln(w, "at_ps,track,name,value"); err != nil {
		return err
	}
	for _, ev := range events {
		if ev.Kind != telemetry.KindCounter {
			continue
		}
		if ev.AtPs < fromPs || (toPs > 0 && ev.AtPs > toPs) {
			continue
		}
		track := ""
		if int(ev.Track) < len(tracks) {
			track = tracks[ev.Track]
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%g\n", ev.AtPs, track, ev.Name, ev.Value); err != nil {
			return err
		}
	}
	return nil
}

// runBench executes the pinned scenarios, writes the results, and gates
// against the baseline (or re-pins it with -update-baseline). The wall
// clock is injected here — internal/profile stays wall-clock-free — so
// results carry wall_seconds and sim_req_per_wall_s per scenario; those
// volatile keys are stripped before a baseline re-pin.
func runBench(baselinePath, outPath string, tol float64, updateBaseline bool) error {
	clock := func() int64 { return time.Now().UnixNano() } // wallclock:ok — bench wall-clock KPI, injected so internal/profile stays clock-free
	rep, err := profile.RunBenchClocked(profile.DefaultBenchScenarios(), clock)
	if err != nil {
		return err
	}
	// Compare before marshalling: a non-finite KPI is reported as a
	// named drift, not only as the encoder's anonymous NaN error.
	var drifts []profile.Drift
	if !updateBaseline {
		baseData, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("read baseline (run with -update-baseline to create): %w", err)
		}
		base, err := profile.UnmarshalBench(baseData)
		if err != nil {
			return fmt.Errorf("%s: %w", baselinePath, err)
		}
		drifts = profile.CompareBench(base, rep, tol)
		for _, d := range drifts {
			fmt.Fprintf(os.Stderr, "bench: DRIFT %s\n", d)
		}
	}
	data, err := profile.MarshalBench(rep)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("bench: wrote %s (%d scenarios)\n", outPath, len(rep.Scenarios))
	}
	for _, r := range rep.Scenarios {
		if wall, ok := r.KPIs["wall_seconds"]; ok {
			req := r.KPIs["requests"]
			if _, ok := r.KPIs["ops"]; ok { // cluster scenarios count client ops
				req = r.KPIs["ops"]
			}
			fmt.Printf("bench: %-16s %8.0f req  %6.2f wall-s  %8.0f sim-req/wall-s\n",
				r.Name, req, wall, r.KPIs["sim_req_per_wall_s"])
		}
	}
	if updateBaseline {
		data, err := profile.MarshalBench(profile.StripVolatile(rep))
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("bench: baseline %s re-pinned\n", baselinePath)
		return nil
	}
	if len(drifts) > 0 {
		return fmt.Errorf("%d KPI(s) drifted beyond %.1f%% tolerance", len(drifts), tol*100)
	}
	fmt.Printf("bench: %d scenarios within %.1f%% of baseline\n", len(rep.Scenarios), tol*100)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracestat:", err)
	os.Exit(1)
}
