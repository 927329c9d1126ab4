// Command smartdimm-sim runs configurable full-system serving
// experiments and prints the measured metrics — the general-purpose CLI
// around the simulator for exploring configurations beyond the paper's.
//
// -msg and -conns accept comma-separated lists; the cartesian product of
// the values is swept, with independent runs fanned across -parallel
// workers (results always print in sweep order).
//
// Multi-device fleets: -devices N (default 1) installs N SmartDIMM
// ranks and shards connections across them through internal/fleet. The
// -placement flag accepts the fleet placement policies directly —
// rr (round-robin), leastload, affinity, sticky — and plain "smartdimm"
// with -devices above 1 defaults to the rr policy. Non-SmartDIMM
// placements reject -devices above 1.
//
// Parallel single-run: -shards N splits ONE simulation across N engine
// shards (each a disjoint sub-system of -devices ranks behind its own
// fleet) executed in parallel with conservative lookahead; -exec-workers
// caps the epoch parallelism (1 = serial reference). Reported metrics
// and -trace output are byte-identical for every -exec-workers value.
//
// Examples:
//
//	smartdimm-sim -placement smartdimm -ulp tls -msg 16384 -conns 512
//	smartdimm-sim -placement cpu -ulp compression -msg 4096 -corpus html
//	smartdimm-sim -placement adaptive -llc 4194304 -measure-ms 50
//	smartdimm-sim -placement smartdimm -msg 1024,4096,16384 -conns 64,256
//	smartdimm-sim -placement leastload -devices 4 -ulp compression -conns 128
//	smartdimm-sim -placement rr -devices 4 -datapath peer -msg 16384
//	smartdimm-sim -workload kv -devices 4 -rps 1800000 -conns 64
//	smartdimm-sim -workload embed -devices 4 -rps 500000 -slo-us 100
//	smartdimm-sim -workload kv -devices 4 -rps 2500000 -slo-us 100 -scrape-us 100 -alerts -incident-dir out/
//
// Workload suite: -workload kv|embed replaces the closed-loop generator
// with the trace-replay workload suite (internal/workload) — an
// open-loop arrival trace at -rps drives the KV-cache GET/SET mix or
// the embedding-gather mix over a -devices-rank fleet; -msg and -corpus
// do not apply (the source's payload mix governs). -slo-us additionally
// runs the SLO autoscaler over the fleet and reports its action log.
//
// Observability (workload runs only): -scrape-us sets the simulated-time
// scrape interval of the metrics plane; -alerts evaluates the default
// alert rules (a multi-window burn-rate page on the -slo-us objective,
// a breaker-trip threshold) and prints the deterministic alert log;
// -incident-dir arms the flight recorder — every alert firing freezes a
// bundle written as incident-<i>-<rule>/report.txt (correlated timeline
// + series summary) and trace.json (the Perfetto slice of the lookback
// window around the firing).
//
// Data path: -datapath host (default) refills page-cache misses by
// storage DMA bounced through host DRAM; -datapath peer installs the
// RDMA NIC model and refills by one-sided writes straight into the
// registered SmartDIMM buffers (requires the smartdimm placement or a
// fleet policy).
//
// Every run is assembled by scenario.Build, which rejects a flag the
// run's kind cannot honour: -workload with -shards, -trace, -profile or
// -llc, and -datapath peer with -shards, are errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/corpus"
	"repro/internal/offload"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// cliConfig carries what every run of the sweep shares: the run's Spec
// (each sweep point fills Msg and Conns) and the report flags.
type cliConfig struct {
	spec        scenario.Spec
	tracePath   string
	metrics     bool
	profile     bool
	sloUs       float64
	scrapeUs    int64
	alerts      bool
	incidentDir string
}

// point is one (msg, conns) point of the sweep.
type point struct{ msg, conns int }

func main() {
	cfg, sweep, par, err := parseArgs(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	var pool *runner.Pool
	if par != 1 && len(sweep) > 1 {
		pool = runner.New(par)
	}
	// Each run formats its own report; blocks print in sweep order no
	// matter which worker finishes first.
	blocks, err := runner.Map(context.Background(), pool, sweep,
		func(_ context.Context, pt point, _ int) (string, error) {
			return runOne(cfg, pt)
		})
	if err != nil {
		fatal(err)
	}
	for i, b := range blocks {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(b)
	}
}

// parseArgs maps the command line onto the sweep's shared config, its
// points, and the sweep parallelism.
func parseArgs(args []string) (cliConfig, []point, int, error) {
	fs := flag.NewFlagSet("smartdimm-sim", flag.ExitOnError)
	placement := fs.String("placement", "smartdimm",
		"cpu | smartnic | qat | smartdimm | adaptive, or a fleet policy rr | leastload | affinity | sticky (default policy with -devices > 1: rr)")
	devices := fs.Int("devices", 1, "SmartDIMM ranks; above 1, connections shard across a fleet (see -placement)")
	datapath := fs.String("datapath", "host", "record ingress: host (storage DMA via host DRAM) | peer (zero-copy RDMA into device buffers; needs smartdimm or a fleet placement)")
	shards := fs.Int("shards", 0, "run ONE simulation split across N parallel engine shards (sub-systems with -devices ranks each); 0 = the serial engine")
	execWorkers := fs.Int("exec-workers", 0, "with -shards: epoch execution parallelism (0 = GOMAXPROCS, 1 = serial reference schedule; results are byte-identical either way)")
	ulpName := fs.String("ulp", "tls", "tls | compression | none (plain HTTP)")
	msgList := fs.String("msg", "4096", "message (response body) sizes in bytes, comma-separated")
	connList := fs.String("conns", "256", "persistent connection counts, comma-separated")
	workers := fs.Int("workers", 10, "server worker threads")
	llc := fs.Int("llc", 0, "LLC size in bytes (0 = 2MB)")
	ways := fs.Int("ways", 0, "LLC associativity (0 = 8)")
	kindName := fs.String("corpus", "text", "file corpus: zeros|html|text|json|random")
	warmupMs := fs.Int("warmup-ms", 2, "warmup window")
	measureMs := fs.Int("measure-ms", 20, "measurement window")
	seed := fs.Int64("seed", 1, "workload seed")
	par := fs.Int("parallel", 0, "concurrent sweep runs (0 = GOMAXPROCS, 1 = serial)")
	tracePath := fs.String("trace", "", "write a Chrome/Perfetto trace of the run to this file (single-point sweeps only)")
	metrics := fs.Bool("metrics", false, "append the full metrics registry (name value lines) to the report")
	prof := fs.Bool("profile", false, "append the simulated-time profile tree and critical-path table to the report (traces the run internally)")
	workloadName := fs.String("workload", "", "trace-replay workload suite: kv (cache GET/SET mix) | embed (embedding gathers); empty = closed-loop generator")
	rps := fs.Float64("rps", 1e6, "with -workload: open-loop offered rate (requests/s)")
	sloUs := fs.Float64("slo-us", 0, "with -workload: run the SLO autoscaler with this p99 latency objective (us); 0 = no autoscaler")
	scrapeUs := fs.Int64("scrape-us", 0, "with -workload: observability scrape interval (us); 0 = one scrape per control tick")
	alerts := fs.Bool("alerts", false, "with -workload: evaluate the default alert rules (burn-rate page on the -slo-us objective, breaker-trip) and print the alert log")
	incidentDir := fs.String("incident-dir", "", "with -workload: arm the flight recorder and write each incident bundle (report.txt + trace.json) under this directory")
	fs.Parse(args) // ExitOnError: a bad flag exits here

	kind, err := parseKind(*kindName)
	if err != nil {
		return cliConfig{}, nil, 0, err
	}
	msgs, err := parseIntList("msg", *msgList)
	if err != nil {
		return cliConfig{}, nil, 0, err
	}
	conns, err := parseIntList("conns", *connList)
	if err != nil {
		return cliConfig{}, nil, 0, err
	}
	if *devices < 1 {
		return cliConfig{}, nil, 0, fmt.Errorf("-devices %d: need at least one rank", *devices)
	}
	cfg := cliConfig{
		spec: scenario.Spec{
			Placement: strings.ToLower(*placement), Devices: *devices, DataPath: strings.ToLower(*datapath),
			ULP: strings.ToLower(*ulpName), Workers: *workers, Seed: *seed, FileKind: kind,
			WarmupPs: int64(*warmupMs) * sim.Ms, MeasurePs: int64(*measureMs) * sim.Ms,
			Shards: *shards, ExecWorkers: *execWorkers, LLCBytes: *llc, LLCWays: *ways,
		},
		tracePath: *tracePath, metrics: *metrics, profile: *prof,
		sloUs: *sloUs, scrapeUs: *scrapeUs, alerts: *alerts, incidentDir: *incidentDir,
	}
	if *workloadName != "" {
		// The workload's request mix sets the payloads: -msg and -corpus
		// do not apply.
		cfg.spec.Workload, cfg.spec.RPS, cfg.spec.FileKind = strings.ToLower(*workloadName), *rps, 0
		msgs = []int{0}
	} else if *scrapeUs > 0 || *alerts || *incidentDir != "" {
		return cliConfig{}, nil, 0, fmt.Errorf("-scrape-us/-alerts/-incident-dir: observability plane runs need -workload")
	}
	var sweep []point
	for _, m := range msgs {
		for _, c := range conns {
			sweep = append(sweep, point{msg: m, conns: c})
		}
	}
	if *tracePath != "" && len(sweep) > 1 {
		return cliConfig{}, nil, 0, fmt.Errorf("-trace: sweep has %d points; tracing needs a single msg/conns point", len(sweep))
	}
	if *incidentDir != "" && len(sweep) > 1 {
		return cliConfig{}, nil, 0, fmt.Errorf("-incident-dir: sweep has %d points; incident capture needs a single msg/conns point", len(sweep))
	}
	return cfg, sweep, *par, nil
}

// runOne builds a fresh run through scenario.Build, drives one
// measurement, and returns the formatted report. Build refuses any flag
// combination the run's kind cannot honour (-workload with -shards or
// -trace, -datapath peer with -shards, ...).
func runOne(cfg cliConfig, pt point) (string, error) {
	sp := cfg.spec
	sp.Msg, sp.Conns = pt.msg, pt.conns
	if cfg.tracePath != "" || cfg.profile {
		// -profile analyzes the same event stream a -trace run records,
		// so both flags thread a tracer through the run.
		sp.Tracer = telemetry.New()
		if sp.Shards == 0 {
			// A traced serial run also records the channel-0 CAS stream
			// so the Perfetto counter track has data.
			sp.TraceCAS = 1 << 16
		}
	}
	st, err := scenario.Build(sp)
	if err != nil {
		return "", err
	}
	if st.Workload != nil {
		layerObs(cfg, st.Workload)
	}
	r, err := st.Run()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	reg := telemetry.NewRegistry()
	reg.Register("server", r.Metrics)
	switch {
	case r.Workload != nil:
		err = workloadReport(&b, cfg, st, *r.Workload, reg)
	case r.Sharded != nil:
		shardedReport(&b, st, r, reg)
	default:
		serialReport(&b, st, r.Metrics, reg)
	}
	if err == nil && cfg.metrics {
		fmt.Fprintf(&b, "--- metrics ---\n")
		err = reg.WriteText(&b)
	}
	if err == nil && sp.Tracer != nil {
		err = writeTrace(&b, cfg, st)
	}
	return b.String(), err
}

// writeServing appends the server-metrics lines every report shares; a
// closed-loop run (msg > 0) adds its wire bytes and mean latency.
func writeServing(b *strings.Builder, m server.Metrics, msg int) {
	fmt.Fprintf(b, "requests:    %d in %.2fms\n", m.Requests, float64(m.ElapsedPs)/float64(sim.Ms))
	fmt.Fprintf(b, "RPS:         %.0f\n", m.RPS)
	fmt.Fprintf(b, "CPU util:    %.1f%%\n", m.CPUUtil*100)
	fmt.Fprintf(b, "memory BW:   %.3f GB/s (%d bytes)\n", m.MemBWGBps, m.MemBytes)
	if msg > 0 {
		fmt.Fprintf(b, "TX:          %d bytes (%.2fx body)\n", m.TXBytes, float64(m.TXBytes)/float64(m.Requests*uint64(msg)))
		fmt.Fprintf(b, "mean latency: %.1f us\n", float64(m.MeanLatPs)/float64(sim.Us))
	}
}

// serialReport formats a run on one serial system and registers its
// components' metrics.
func serialReport(b *strings.Builder, st *scenario.Stack, m server.Metrics, reg *telemetry.Registry) {
	sp, sys, fl := st.Spec, st.Sys, st.Fleet
	fmt.Fprintf(b, "placement:   %s\n", sp.Placement)
	fmt.Fprintf(b, "datapath:    %s\n", sp.DataPath)
	fmt.Fprintf(b, "mode:        %s, %dB messages, %d connections, %d workers\n", st.Mode, sp.Msg, sp.Conns, sp.Workers)
	writeServing(b, m, sp.Msg)
	if fl != nil {
		t := fl.Totals()
		fmt.Fprintf(b, "fleet:       %d devices (%s), %d active; %d batches / %d descriptors\n",
			t.Devices, fl.Policy(), t.Active, t.Batches, t.Descriptors)
		fmt.Fprintf(b, "placement:   %d migrations (%d sheds), %d trips / %d readmits, %d soft ops, fallback rate %.4f\n",
			t.Migrations, t.Sheds, t.Trips, t.Readmits, t.SoftOps, t.Degraded.FallbackRate())
	}
	if sys.Dev != nil {
		ds := sys.Dev.Stats()
		fmt.Fprintf(b, "smartdimm:   %d registrations, %d DSA lines, %d self-recycles, %d S7, %d S10, %d ALERT_N\n",
			ds.Registrations, ds.DSALinesFed, ds.SelfRecycles, ds.IgnoredWrites, ds.ScratchpadReads, ds.Alerts)
		fmt.Fprintf(b, "driver:      %d CompCpy, %d force-recycles\n",
			sys.Driver.Stats().CompCpyCalls, sys.Driver.Stats().ForceRecycleCalls)
		if ad, ok := st.Backend.(*offload.Adaptive); ok {
			fmt.Fprintf(b, "adaptive:    %d offloaded, %d on CPU (last miss rate %.3f)\n",
				ad.OffloadedN, ad.OnCPUN, ad.LastMissRate)
		}
	}
	if st.NIC != nil {
		ns := st.NIC.Stats()
		fmt.Fprintf(b, "rdma:        %d MRs (%d live), %d WQEs (%d ok / %d failed), %d doorbells (%.2f wqe/ring, %d lost), %d RNR naks, %d stale retargets\n",
			ns.MRs, ns.LiveMRs, ns.Posted, ns.Completed, ns.Failed,
			ns.Doorbells, ns.DoorbellsCoalesce, ns.DoorbellsLost, ns.RNRNaks, ns.StaleRkeyRetries)
		fmt.Fprintf(b, "             %d peer bytes on the wire (%.2fus serialized), %d preloaded\n",
			ns.PeerBytes, float64(ns.WirePs)/float64(sim.Us), ns.Preloaded)
	}
	sys.RegisterMetrics(reg)
	if fl != nil {
		reg.Register("fleet", fl.Totals())
	}
}

// shardedReport formats a run split across -shards parallel engine
// shards (fleet.Sharded): each shard is a disjoint sub-system with
// -devices ranks behind a per-shard fleet backend, and the front-end
// shard dispatches connections across them. Reported metrics (and
// -trace / -metrics artifacts) are byte-identical at any -exec-workers
// setting.
func shardedReport(b *strings.Builder, st *scenario.Stack, r scenario.Result, reg *telemetry.Registry) {
	sp, cl, sm := st.Spec, st.Sharded, r.Sharded
	fmt.Fprintf(b, "placement:   %s, %d shards x %d ranks (exec workers: %d)\n",
		cl.Fleets()[0].Policy(), sp.Shards, sp.Devices, cl.Engine().Workers)
	fmt.Fprintf(b, "mode:        %s, %dB messages, %d connections, %d workers/shard\n", st.Mode, sp.Msg, sp.Conns, sp.Workers)
	writeServing(b, r.Metrics, sp.Msg)
	fmt.Fprintf(b, "engine:      lookahead %.2fus, %d epochs, %d cross-shard msgs, %d events\n",
		float64(cl.Engine().Lookahead())/float64(sim.Us), sm.Epochs, sm.SentMsgs, sm.Processed)
	for s, ps := range sm.PerShard {
		fmt.Fprintf(b, "  shard %d:   %d requests, RPS %.0f, mean latency %.1f us\n",
			s, ps.Requests, ps.RPS, float64(ps.MeanLatPs)/float64(sim.Us))
	}
	cl.RegisterMetrics(reg)
}

// writeTrace appends the -profile tree (plus, for a serial run, the
// critical-path table) and writes the -trace file.
func writeTrace(b *strings.Builder, cfg cliConfig, st *scenario.Stack) error {
	tracer := st.Spec.Tracer
	if st.Sys != nil && st.Sys.Trace != nil {
		st.Sys.Trace.ExportTo(tracer)
	}
	if cfg.profile {
		fmt.Fprintf(b, "--- profile ---\n")
		if err := profile.FromTracer(tracer).WriteTree(b); err != nil {
			return err
		}
		if st.Sys != nil {
			cp := profile.AnalyzeTracer(tracer, profile.Options{FromPs: st.Spec.WarmupPs})
			fmt.Fprintf(b, "--- critical path ---\n")
			if err := cp.WriteTable(b); err != nil {
				return err
			}
		}
	}
	if cfg.tracePath != "" {
		if err := tracer.WritePerfettoFile(cfg.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(b, "trace:       %s (%d events; open in chrome://tracing or ui.perfetto.dev)\n",
			cfg.tracePath, tracer.Len())
	}
	return nil
}

// layerObs puts the workload-only flags on the mapped run config: the
// SLO autoscaler (-slo-us), the scrape interval (-scrape-us), the
// default alert rules (-alerts) and the flight recorder
// (-incident-dir).
func layerObs(cfg cliConfig, rc *workload.RunConfig) {
	if cfg.sloUs > 0 {
		rc.Scale = &autoscale.Config{SLOPs: cfg.sloUs * float64(sim.Us)}
	}
	if cfg.scrapeUs > 0 {
		rc.ScrapePs = cfg.scrapeUs * sim.Us
	}
	if cfg.alerts || cfg.incidentDir != "" {
		// The burn-rate page targets the autoscaler's objective when one
		// is set, the 100us default otherwise.
		slo := cfg.sloUs
		if slo <= 0 {
			slo = 100
		}
		rc.Rules = workload.DefaultAlertRules(slo * float64(sim.Us))
	}
	rc.Record = cfg.incidentDir != ""
}

// workloadReport formats a trace-replay workload run: an open-loop
// arrival trace at -rps over a -devices-rank fleet, optionally
// supervised by the SLO autoscaler (-slo-us).
func workloadReport(b *strings.Builder, cfg cliConfig, st *scenario.Stack, rep workload.Report, reg *telemetry.Registry) error {
	m, rc := rep.Metrics, st.Workload
	fmt.Fprintf(b, "workload:    %s, %.0f rps offered (open loop), %d connections, %d workers\n",
		rep.Kind, st.Spec.RPS, rc.Conns, rc.Workers)
	fmt.Fprintf(b, "fleet:       %d devices (%s), %d active at end\n", rc.Ranks, rc.Policy, rep.FinalActive)
	fmt.Fprintf(b, "issued:      %d (%d completed, peak in-flight %d)\n", rep.Issued, rep.Completed, rep.PeakInFlight)
	writeServing(b, m, 0)
	fmt.Fprintf(b, "latency:     p50 %.1f us, p99 %.1f us (end to end)\n",
		rep.P50Ps/float64(sim.Us), rep.P99Ps/float64(sim.Us))
	switch rep.Kind {
	case "kv":
		fmt.Fprintf(b, "mix:         %d gets / %d sets\n", rep.Gets, rep.Sets)
	case "embed":
		fmt.Fprintf(b, "mix:         %d gathers\n", rep.Gathers)
	}
	if rc.Scale != nil {
		fmt.Fprintf(b, "autoscaler:  SLO %.0fus held %.0f%% of ticks; %d admits, %d drains\n",
			cfg.sloUs, rep.SLOHeldFrac*100, rep.Fleet.AdminAdmits, rep.Fleet.AdminDrains)
		if rep.Actions != "" {
			fmt.Fprintf(b, "--- actions ---\n%s", rep.Actions)
		}
	}
	if len(rc.Rules) > 0 {
		fmt.Fprintf(b, "alerts:      %d transitions, %d incidents (%d dropped)\n",
			len(rep.Alerts), len(rep.Incidents), rep.IncidentsDropped)
		if rep.AlertLog != "" {
			fmt.Fprintf(b, "--- alerts ---\n%s", rep.AlertLog)
		}
	}
	reg.Register("run", rep)
	if cfg.incidentDir != "" {
		return writeIncidents(cfg.incidentDir, rep, b)
	}
	return nil
}

// writeIncidents dumps each captured flight-recorder bundle under dir:
// incident-<i>-<rule>/report.txt holds the correlated text report,
// trace.json the ps-windowed Perfetto slice around the firing.
func writeIncidents(dir string, rep workload.Report, b *strings.Builder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, in := range rep.Incidents {
		sub := filepath.Join(dir, fmt.Sprintf("incident-%d-%s", i, in.Rule))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(sub, "report.txt"), []byte(in.Report), 0o644); err != nil {
			return err
		}
		events := 0
		if in.Trace != nil {
			if err := in.Trace.WritePerfettoFile(filepath.Join(sub, "trace.json")); err != nil {
				return err
			}
			events = in.Trace.Len()
		}
		fmt.Fprintf(b, "incident:    %s (rule %s at %.2fms, %d trace events)\n",
			sub, in.Rule, float64(in.AtPs)/float64(sim.Ms), events)
	}
	if rep.IncidentsDropped > 0 {
		fmt.Fprintf(b, "incident:    %d firings past the bundle cap were dropped\n", rep.IncidentsDropped)
	}
	return nil
}

func parseIntList(name, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseKind(name string) (corpus.Kind, error) {
	for _, k := range corpus.AllKinds() {
		if k.String() == strings.ToLower(name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown corpus %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartdimm-sim:", err)
	os.Exit(1)
}
