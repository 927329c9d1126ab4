// Command figures regenerates every table and figure of the paper's
// evaluation from the simulation models and prints the series the paper
// plots, alongside the paper's reported values where applicable.
//
// Usage:
//
//	figures               # all experiments at quick scale
//	figures -fig 11       # one figure
//	figures -fig 2b       # bursty-loss variant of Fig. 2 (not in "all")
//	figures -fig 9trace > trace.dat  # Fig. 9's raw CAS scatter (not in "all")
//	figures -fig scale    # fleet scaling, 1-8 SmartDIMM ranks (not in "all")
//	figures -fig shard    # sharded-engine wall-clock scaling (not in "all")
//	figures -fig failover # cluster availability across a node kill (not in "all")
//	figures -fig rdma     # zero-copy peer-DMA vs host-mediated data path (not in "all")
//	figures -fig autoscale # SLO autoscaler vs flash crowd + rank fault (not in "all")
//	figures -fig incident # alerting + flight-recorder incident narrative (not in "all")
//	figures -table 1      # Table I
//	figures -power        # §VII-D power/area model
//	figures -scale paper  # testbed-scale workloads (slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate (2,2b,3,9,9trace,10,11,12,13,scale,shard,failover,breakdown,critpath,rdma,autoscale,incident); empty = all (non-paper figures excluded)")
	table := flag.Int("table", 0, "table number to regenerate (1); 0 = all")
	pow := flag.Bool("power", false, "print the §VII-D power/area model")
	scale := flag.String("scale", "quick", "workload scale: quick or paper")
	par := flag.Int("parallel", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	// Parameter points of a sweep are independent simulations; fanning
	// them across cores changes wall-clock time only — the printed series
	// are byte-identical to a serial run.
	var pool *runner.Pool
	if *par != 1 {
		pool = runner.New(*par)
	}

	sc := experiments.QuickScale()
	if *scale == "paper" {
		sc = experiments.PaperScale()
	}

	all := *fig == "" && *table == 0 && !*pow
	run := func(n int) bool { return all || *fig == strconv.Itoa(n) }

	if run(2) {
		fig2(pool)
	}
	// Fig. 2b and the fleet scaling experiment are extensions beyond the
	// paper's figure set; they run only when asked for, keeping the
	// default output identical to the paper's figures.
	if *fig == "2b" {
		fig2b(pool)
	}
	if *fig == "9trace" {
		fig9Trace()
	}
	if *fig == "scale" {
		figScale(pool)
	}
	if *fig == "shard" {
		figShard()
	}
	if *fig == "failover" {
		figFailover()
	}
	if *fig == "breakdown" {
		figBreakdown(pool, sc)
	}
	if *fig == "critpath" {
		figCritPath(pool, sc)
	}
	if *fig == "rdma" {
		figRDMA(pool, sc)
	}
	if *fig == "autoscale" {
		figAutoscale()
	}
	if *fig == "incident" {
		figIncident()
	}
	if run(3) {
		fig3(pool, sc)
	}
	if run(9) {
		fig9()
	}
	if run(10) {
		fig10(pool, sc)
	}
	if run(11) {
		fig11(pool, sc)
	}
	if run(12) {
		fig12(pool, sc)
	}
	if run(13) {
		fig13()
	}
	if all || *table == 1 {
		table1(pool, sc)
	}
	if all || *pow {
		powerModel()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// figFailover replays the cluster failover schedule — node 0 (the
// initial primary of every replication group) killed mid-run, backups
// promoting, the victim rejoining — and prints the bucketed
// availability/goodput timeline plus the linearizability verdict
// (robustness extension; not a paper figure).
func figFailover() {
	fmt.Println("=== Cluster failover: availability/goodput across a node kill + promotion ===")
	fmt.Println("model: 3-node primary-backup cluster, quorum-ack writes; node 0 killed at 6ms,")
	fmt.Println("       rejoins at 14ms; every bucket counts client-acked operations")
	res, err := experiments.Failover(21)
	if err != nil {
		fail(err)
	}
	if err := res.WriteFailoverTimeline(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println()
}

// figAutoscale replays the flash-crowd + rank-fault workload scenario
// under the SLO autoscaler and prints the per-tick p99/active-rank
// timeline with every controller decision marked (production-workload
// extension; not a paper figure).
func figAutoscale() {
	fmt.Println("=== SLO autoscaler: KV-cache fleet vs flash crowd + rank fault ===")
	fmt.Println("model: 4-rank fleet starting at 2 active, open-loop KV trace (900k rps base,")
	fmt.Println("       2.5x crowd 3-6ms), rank 1 killed at 4.2ms; the controller admits parked")
	fmt.Println("       ranks on sustained p99 breach (SLO 100us) and drains them back after")
	res, err := experiments.Autoscale(11)
	if err != nil {
		fail(err)
	}
	if err := res.WriteAutoscaleTimeline(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println()
}

// figIncident replays the hardened flash-crowd + rank-fault scenario
// with the alerting plane and flight recorder armed and prints the
// incident narrative: the tick timeline with alert transitions marked,
// the deterministic alert log, and each frozen bundle's correlated
// timeline (observability extension; not a paper figure).
func figIncident() {
	fmt.Println("=== Incident narrative: burn-rate page, breaker alert, flight-recorder bundles ===")
	fmt.Println("model: the -fig autoscale scenario with the crowd at 3.0x (past the two initial")
	fmt.Println("       ranks' collapse point) and a 100us scraper running the default alert rules;")
	fmt.Println("       each firing freezes a 2ms-lookback bundle: correlated timeline + trace slice")
	res, err := experiments.Incident(7)
	if err != nil {
		fail(err)
	}
	if err := res.WriteIncidentReport(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println()
}

func fig2(pool *runner.Pool) {
	fmt.Println("=== Fig. 2: encrypted-connection bandwidth under packet drops ===")
	fmt.Println("paper: SmartNIC matches CPU at 0% drops, then collapses as drops rise")
	fmt.Printf("%-10s %-10s %-12s %s\n", "drop(%)", "config", "Gbps", "resyncs")
	for _, p := range experiments.Fig2(pool, []float64{0, 0.01, 0.05, 0.1, 0.5, 1.0}) {
		fmt.Printf("%-10.2f %-10s %-12.2f %d\n", p.DropPct, p.Placement, p.Gbps, p.Resyncs)
	}
	fmt.Println()
}

func fig2b(pool *runner.Pool) {
	fmt.Println("=== Fig. 2b: encrypted-connection goodput under bursty loss + link flaps ===")
	fmt.Println("model: Gilbert-Elliott bursts (p_bad->good=0.2, loss_bad=0.8), 200us outage per 50ms,")
	fmt.Println("       0.1% reorder; each burst re-desynchronizes the SmartNIC inline engine")
	fmt.Printf("%-12s %-10s %-10s %-12s %-10s %-10s %s\n",
		"p(g->b)%", "config", "Gbps", "burstdrops", "flapdrops", "resyncs", "sw-fallbacks")
	for _, p := range experiments.Fig2b(pool, []float64{0, 0.05, 0.1, 0.2, 0.5}) {
		fmt.Printf("%-12.2f %-10s %-10.2f %-12d %-10d %-10d %d\n",
			p.PGoodBadPct, p.Placement, p.Gbps, p.BurstDrops, p.FlapDrops,
			p.Resyncs, p.FallbackEncrypts)
	}
	fmt.Println()
}

func figScale(pool *runner.Pool) {
	fmt.Println("=== Fleet scaling: compressed-HTTP RPS and p99 vs SmartDIMM device count ===")
	fmt.Println("model: 1-8 ranks behind one fleet backend; uniform and Zipf-skewed closed-loop load;")
	fmt.Println("       round-robin vs least-loaded at every count, affinity/sticky at the largest")
	pts, err := experiments.FigScale(pool, experiments.FleetScale(), []int{1, 2, 4, 8}, 16384)
	if err != nil {
		fail(err)
	}
	fmt.Print(experiments.RenderScale(pts))
	fmt.Println()
}

// figShard measures the sharded PDES engine's single-run wall-clock
// scaling: the same simulated cluster at 1-8 shards, executed first on
// the serial reference schedule (exec-workers 1) and then with parallel
// epochs (exec-workers 0 = GOMAXPROCS). Simulated results are
// byte-identical between the two columns — only wall time moves, and it
// can only move if the host actually has cores to run epochs on.
func figShard() {
	ncpu := runtime.NumCPU()
	fmt.Println("=== Sharded engine: single-run wall-clock scaling ===")
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d", runtime.GOMAXPROCS(0), ncpu)
	if ncpu < 4 {
		fmt.Print("  (fewer than 4 cores: parallel epochs cannot beat the serial schedule here;")
		fmt.Print("\n       the speedup column measures synchronization overhead, not scaling)")
	}
	fmt.Println()
	fmt.Printf("%-8s %-10s %-12s %-12s %-14s %-14s %s\n",
		"shards", "requests", "sim RPS", "serial-s", "parallel-s", "req/wall-s", "speedup")
	for _, shards := range []int{1, 2, 4, 8} {
		var walls [2]float64
		var requests uint64
		var rps float64
		for i, execWorkers := range []int{1, 0} {
			st, err := scenario.Build(scenario.Spec{
				Placement: "rr", Shards: shards, ULP: "tls",
				Msg: 4096, Conns: 64 * shards, FileKind: corpus.Text, Seed: 1,
				WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms, ExecWorkers: execWorkers,
			})
			if err != nil {
				fail(err)
			}
			start := time.Now() // wallclock:ok — measures host wall-clock scaling, not simulated time
			r, err := st.Run()
			if err != nil {
				fail(err)
			}
			walls[i] = time.Since(start).Seconds()
			if i == 0 {
				requests, rps = r.Metrics.Requests, r.Metrics.RPS
			} else if r.Metrics.Requests != requests {
				fail(fmt.Errorf("shards=%d: parallel run diverged from serial (%d vs %d requests)",
					shards, r.Metrics.Requests, requests))
			}
		}
		fmt.Printf("%-8d %-10d %-12.0f %-12.2f %-14.2f %-14.0f %.2fx\n",
			shards, requests, rps, walls[0], walls[1],
			float64(requests)/walls[1], walls[0]/walls[1])
	}
	fmt.Println()
}

func figBreakdown(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Per-stage latency breakdown: Nginx TLS, 16KB messages ===")
	fmt.Println("model: summed worker occupancy per pipeline stage over the measured window;")
	fmt.Println("       wire = shared NIC link serialization. SmartDIMM drops the copy stage")
	fmt.Println("       (inline page cache) and shrinks ULP to doorbell+descriptor costs")
	rows, err := experiments.FigBreakdown(pool, sc, server.HTTPSMode, 16384)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-12s", "config")
	for _, n := range server.StageNames {
		fmt.Printf(" %9s%%", n)
	}
	fmt.Printf(" %12s\n", "mean-lat(us)")
	for _, r := range rows {
		fmt.Printf("%-12s", r.Placement)
		for _, s := range r.SharePct {
			fmt.Printf(" %10.1f", s)
		}
		fmt.Printf(" %12.1f\n", float64(r.Metrics.MeanLatPs)/float64(sim.Us))
	}
	fmt.Println()
}

func figCritPath(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Critical-path stage shares: Nginx TLS, 16KB messages (trace-derived) ===")
	fmt.Println("model: per-request blocking attribution from the Perfetto event stream —")
	fmt.Println("       the trace-side counterpart of -fig breakdown. SmartDIMM's copy share")
	fmt.Println("       is 0: inline page cache, no copy spans exist to block on")
	rows, err := experiments.CritPathBreakdown(pool, sc, server.HTTPSMode, 16384)
	if err != nil {
		fail(err)
	}
	if err := experiments.WriteCritPathTable(os.Stdout, rows); err != nil {
		fail(err)
	}
	fmt.Println()
}

func figRDMA(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Zero-copy data path: host-mediated vs peer-DMA ingress, 16KB TLS records ===")
	fmt.Println("model: host paths refill page-cache misses by storage DMA bounced through host")
	fmt.Println("       DRAM (DDIO ways); peer-dimm refills by one-sided RDMA WRITE straight into")
	fmt.Println("       the registered rank buffer — copy and bounce stages vanish from the")
	fmt.Println("       critical path, refills stop streaming through the LLC, and the +mcf")
	fmt.Println("       columns show the isolation win under cache pressure. wqe/doorbell is")
	fmt.Println("       the submission-queue coalescing factor.")
	pts, err := experiments.FigRDMA(pool, sc)
	if err != nil {
		fail(err)
	}
	if err := experiments.WriteRDMATable(os.Stdout, pts); err != nil {
		fail(err)
	}
	fmt.Println()
}

func fig3(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Fig. 3: HTTPS memory bandwidth normalized to HTTP ===")
	fmt.Println("paper: ratio grows with connections, up to ~2.5x")
	connCounts := []int{16, 64, 256}
	if sc.Connections > 256 {
		connCounts = append(connCounts, sc.Connections)
	}
	pts, err := experiments.Fig3(pool, sc, connCounts, 4096)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-12s %-14s %-14s %s\n", "connections", "HTTP GB/s", "HTTPS GB/s", "HTTPS/HTTP")
	for _, p := range pts {
		fmt.Printf("%-12d %-14.3f %-14.3f %.2fx\n", p.Connections, p.HTTPMemGBps, p.HTTPSMemGBps, p.NormalizedRatio)
	}
	fmt.Println()
}

func fig9() {
	fmt.Println("=== Fig. 9: rd/wrCAS trace, 4 cores running CompCpy ===")
	fmt.Println("paper: monotonically increasing source reads, self-recycle writes, 32MB spacing")
	res, err := experiments.Fig9()
	if err != nil {
		fail(err)
	}
	fmt.Printf("rdCAS: %d  wrCAS: %d  self-recycles: %d  address spread: %dMB\n",
		res.Trace.Reads(), res.Trace.Writes(), res.SelfRecycles, res.SpreadBytes>>20)
	for c := 0; c < 4; c++ {
		fmt.Printf("core %d mean monotonic rdCAS run: %.1f cachelines\n", c, res.MeanRunLen[c])
	}
	fmt.Println("(use -fig 9trace to dump the raw scatter for plotting)")
	fmt.Println()
}

// fig9Trace dumps the Fig. 9 CAS trace as "time_ps kind phys_addr core"
// rows on stdout, ready for gnuplot
// (plot 'trace.dat' using 1:3 with dots), and its summary on stderr.
func fig9Trace() {
	res, err := experiments.Fig9()
	if err != nil {
		fail(err)
	}
	if err := res.Trace.Dump(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "figures: %d rdCAS, %d wrCAS, %d self-recycles, spread %dMB\n",
		res.Trace.Reads(), res.Trace.Writes(), res.SelfRecycles, res.SpreadBytes>>20)
}

func fig10(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Fig. 10: scratchpad occupancy vs LLC provisioning ===")
	fmt.Println("paper: equilibrium occupancy scales with LLC size (50MB LLC -> <2MB, 10MB -> <500KB)")
	series, err := experiments.Fig10(pool, []int{sc.LLCBytes / 8, sc.LLCBytes / 2, sc.LLCBytes}, sc)
	if err != nil {
		fail(err)
	}
	for _, s := range series {
		fmt.Printf("LLC %6dKB: equilibrium occupancy %8.1fKB  force-recycles %d\n",
			s.LLCBytes>>10, s.EquilibriumKB, s.ForceRecycles)
		for _, p := range experiments.Downsample(s.Points, 8) {
			fmt.Printf("    t=%6.2fms  occupancy=%7.1fKB\n", float64(p.AtPs)/float64(sim.Ms), p.V/1024)
		}
	}
	fmt.Println()
}

func printPerf(pts []experiments.PerfPoint) {
	fmt.Printf("%-12s %-8s %-10s %-10s %-10s %-12s %s\n",
		"config", "msg", "RPS", "RPS-norm", "CPU-norm", "membw-norm", "abs RPS")
	for _, p := range pts {
		fmt.Printf("%-12s %-8d %-10.0f %-10.2f %-10.2f %-12.2f %.0f\n",
			p.Placement, p.MsgSize, p.Metrics.RPS, p.RPSNorm, p.CPUNorm, p.MemNorm, p.Metrics.RPS)
	}
	fmt.Println()
}

func fig11(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Fig. 11: Nginx TLS offload across placements (normalized to CPU) ===")
	fmt.Println("paper: SmartDIMM +21.0% RPS @4KB / +35.8% @16KB, -21.8% CPU, -49.1% membw;")
	fmt.Println("       SmartNIC/QAT no gain at 4KB; SmartNIC gains at 16KB")
	pts, err := experiments.RunPlacements(pool, sc, server.HTTPSMode, []int{4096, 16384}, corpus.Text)
	if err != nil {
		fail(err)
	}
	printPerf(pts)
}

func fig12(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Fig. 12: Nginx compression offload across placements (normalized to CPU) ===")
	fmt.Println("paper: SmartDIMM 5.09x RPS @4KB / 10.28x @16KB, -81.5% CPU, -88.9% membw; QAT <= 1x")
	pts, err := experiments.RunPlacements(pool, sc, server.CompressedHTTP, []int{4096, 16384}, corpus.HTML)
	if err != nil {
		fail(err)
	}
	printPerf(pts)
}

func fig13() {
	fmt.Println("=== Fig. 13: ULP processing design space (0-3, higher is better) ===")
	fmt.Printf("%-24s %-8s %-8s %-10s %-9s %-6s %s\n",
		"placement", "lowLLC", "highLLC", "transport", "ULPdiv", "loss", "L4flex")
	for _, r := range experiments.Fig13() {
		fmt.Printf("%-24s %-8d %-8d %-10d %-9d %-6d %d\n",
			r.Placement, r.LowLLCContention, r.HighLLCContention,
			r.TransportCompat, r.ULPDiversity, r.LossResistance, r.TransportFlexibility)
	}
	fmt.Println()
}

func table1(pool *runner.Pool, sc experiments.Scale) {
	fmt.Println("=== Table I: co-run slowdowns (Nginx+TLS with 10x mcf) ===")
	fmt.Println("paper: Nginx 15.8/7.3/28.7/9.5%, mcf 15.5/8.7/37.9/10.3% (CPU/SmartNIC/QAT/SmartDIMM)")
	rows, err := experiments.Table1(pool, sc)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-12s %-16s %-16s %s\n", "config", "nginx slowdown", "mcf slowdown", "co-run RPS")
	for _, r := range rows {
		fmt.Printf("%-12s %-16.1f %-16.1f %.0f\n",
			r.Placement, r.NginxSlowdown*100, r.McfSlowdown*100, r.CoRunRPS)
	}
	fmt.Println()
}

func powerModel() {
	fmt.Println("=== §VII-D: area and power ===")
	m := power.PaperModel()
	fmt.Printf("dynamic power at full DDR utilization: %.2fW (paper: 4.78W)\n", m.DynamicAtFullWatts())
	fmt.Printf("added power at 30%% utilization:        %.2fW (paper: ~0.92W average)\n", m.AddedPowerAt(0.30))
	fmt.Printf("TLS offload FPGA resources:            %.1f%% (paper: ~21.8%%)\n", m.TLSOffloadFPGAPercent())
	fmt.Printf("%-36s %-12s %s\n", "block", "W @ full", "FPGA %")
	for _, b := range m.Blocks {
		fmt.Printf("%-36s %-12.2f %.1f\n", b.Name, b.DynamicWattsAtFull, b.FPGAPercent)
	}
	fmt.Println()
}
