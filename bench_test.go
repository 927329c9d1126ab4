package repro

// The benchmark harness: one testing.B per table and figure of the
// paper's evaluation (DESIGN.md §3), plus the ablation benches of
// DESIGN.md §5 and the micro-claim checks of §IV. Benchmarks report the
// figure's headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. EXPERIMENTS.md records one such run
// against the paper's numbers.

import (
	"fmt"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cuckoo"
	"repro/internal/deflate"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/memctrl"
	"repro/internal/memsys"
	"repro/internal/offload"
	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// benchPool fans a sweep benchmark's independent simulations across all
// cores; the measured output series are byte-identical to a serial run
// (and on a single-core machine the pool degenerates to serial).
func benchPool() *runner.Pool { return runner.New(0) }

// --- Figures and tables ------------------------------------------------------

func BenchmarkFig02_DropSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig2(benchPool(), []float64{0, 0.1, 0.5})
		byKey := map[string]float64{}
		for _, p := range pts {
			byKey[p.Placement] = p.Gbps // last drop rate wins
			if p.DropPct == 0 {
				byKey[p.Placement+"@0"] = p.Gbps
			}
		}
		b.ReportMetric(byKey["CPU@0"], "cpu-gbps@0drop")
		b.ReportMetric(byKey["SmartNIC@0"], "nic-gbps@0drop")
		b.ReportMetric(byKey["CPU"], "cpu-gbps@0.5drop")
		b.ReportMetric(byKey["SmartNIC"], "nic-gbps@0.5drop")
	}
}

func BenchmarkFig03_HTTPSvsHTTPMemBW(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig3(benchPool(), sc, []int{16, sc.Connections}, 4096)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].NormalizedRatio, "https/http-membw@16conns")
		b.ReportMetric(pts[1].NormalizedRatio, "https/http-membw@max-conns")
	}
}

func BenchmarkFig09_CASTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Trace.Reads()), "rdCAS")
		b.ReportMetric(float64(res.Trace.Writes()), "wrCAS")
		b.ReportMetric(float64(res.SelfRecycles), "self-recycles")
		b.ReportMetric(res.MeanRunLen[0], "mean-monotonic-run")
	}
}

func BenchmarkFig10_ScratchpadEquilibrium(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig10(benchPool(), []int{sc.LLCBytes / 4, sc.LLCBytes}, sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].EquilibriumKB, "equilibriumKB@smallLLC")
		b.ReportMetric(series[1].EquilibriumKB, "equilibriumKB@bigLLC")
		b.ReportMetric(float64(series[1].ForceRecycles), "force-recycles")
	}
}

func reportPerf(b *testing.B, pts []experiments.PerfPoint, msg int) {
	for _, p := range pts {
		if p.MsgSize != msg || p.Placement == experiments.PlaceCPU {
			continue
		}
		name := p.Placement.String()
		b.ReportMetric(p.RPSNorm, name+"-rps-norm")
		b.ReportMetric(p.CPUNorm, name+"-cpu-norm")
		b.ReportMetric(p.MemNorm, name+"-membw-norm")
	}
}

func BenchmarkFig11_TLSOffload4KB(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunPlacements(benchPool(), sc, server.HTTPSMode, []int{4096}, corpus.Text)
		if err != nil {
			b.Fatal(err)
		}
		reportPerf(b, pts, 4096)
	}
}

func BenchmarkFig11_TLSOffload16KB(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunPlacements(benchPool(), sc, server.HTTPSMode, []int{16384}, corpus.Text)
		if err != nil {
			b.Fatal(err)
		}
		reportPerf(b, pts, 16384)
	}
}

func BenchmarkFig12_CompressionOffload4KB(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunPlacements(benchPool(), sc, server.CompressedHTTP, []int{4096}, corpus.HTML)
		if err != nil {
			b.Fatal(err)
		}
		reportPerf(b, pts, 4096)
	}
}

func BenchmarkFig12_CompressionOffload16KB(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunPlacements(benchPool(), sc, server.CompressedHTTP, []int{16384}, corpus.HTML)
		if err != nil {
			b.Fatal(err)
		}
		reportPerf(b, pts, 16384)
	}
}

// BenchmarkFigScale_FleetScaling reports the multi-device fleet headline
// numbers (DESIGN.md §11): aggregate RPS as the rank count grows under
// uniform load, and the rr-vs-leastload p99 gap under Zipf skew.
func BenchmarkFigScale_FleetScaling(b *testing.B) {
	sc := experiments.Scale{
		Connections: 48, Workers: 24,
		WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms,
		LLCBytes: 256 << 10, LLCWays: 8,
	}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.FigScale(benchPool(), sc, []int{1, 4}, 4096)
		if err != nil {
			b.Fatal(err)
		}
		byKey := map[string]experiments.ScalePoint{}
		for _, p := range pts {
			byKey[fmt.Sprintf("%s/%s/%d", p.Load, p.Policy, p.Devices)] = p
		}
		b.ReportMetric(byKey["uniform/rr/1"].RPS, "uniform-rr-rps@1dev")
		b.ReportMetric(byKey["uniform/rr/4"].RPS, "uniform-rr-rps@4dev")
		if base := byKey["uniform/rr/1"].RPS; base > 0 {
			b.ReportMetric(byKey["uniform/rr/4"].RPS/base, "uniform-rr-speedup@4dev")
		}
		b.ReportMetric(byKey["zipf/rr/4"].P99Us, "zipf-rr-p99us@4dev")
		b.ReportMetric(byKey["zipf/leastload/4"].P99Us, "zipf-leastload-p99us@4dev")
	}
}

func BenchmarkTable1_CoRun(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchPool(), sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.NginxSlowdown*100, r.Placement.String()+"-nginx-slowdown-pct")
			b.ReportMetric(r.McfSlowdown*100, r.Placement.String()+"-mcf-slowdown-pct")
		}
	}
}

func BenchmarkPowerModel(b *testing.B) {
	m := power.PaperModel()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(m.DynamicAtFullWatts(), "dynamic-watts@full")
		b.ReportMetric(m.AddedPowerAt(0.30), "added-watts@30pct")
		b.ReportMetric(m.TLSOffloadFPGAPercent(), "tls-fpga-pct")
	}
}

// --- §IV micro-claims ---------------------------------------------------------

// BenchmarkFlushResidency validates the §IV-A claim: flushing 4KB is
// ~50% faster when the data is already in DRAM.
func BenchmarkFlushResidency(b *testing.B) {
	llc, err := cache.New(cache.Config{SizeBytes: 1 << 20, Ways: 8})
	if err != nil {
		b.Fatal(err)
	}
	d, err := dram.NewPlainDIMM(dram.SmallGeometry())
	if err != nil {
		b.Fatal(err)
	}
	h, err := memsys.New(llc, memsys.Channel{Ctl: memctrl.New(dram.DDR4_3200(), d), Mod: d})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	var dirtyPs, cleanPs int64
	for i := 0; i < b.N; i++ {
		base := uint64(i%64) * 4096
		for off := uint64(0); off < 4096; off += 64 {
			h.Write64(0, base+off, buf)
		}
		lat, _ := h.Flush(base, 4096)
		dirtyPs += lat
		lat, _ = h.Flush(base, 4096) // now resident only in DRAM
		cleanPs += lat
	}
	b.ReportMetric(float64(dirtyPs)/float64(b.N)/1000, "dirty-flush-ns")
	b.ReportMetric(float64(cleanPs)/float64(b.N)/1000, "resident-flush-ns")
	b.ReportMetric(float64(cleanPs)/float64(dirtyPs), "resident/dirty-ratio")
}

// BenchmarkReadWriteSlack validates the §IV-D claim: the gap between the
// first source rdCAS and the first destination wrCAS exceeds the DSA
// latency by a wide margin (the paper measures > 1us on Broadwell).
func BenchmarkReadWriteSlack(b *testing.B) {
	var slackSum int64
	for i := 0; i < b.N; i++ {
		d, _ := dram.NewPlainDIMM(dram.SmallGeometry())
		ctl := memctrl.New(dram.DDR4_3200(), d)
		tr := &stats.CASTrace{}
		ctl.Trace = tr
		buf := make([]byte, 64)
		for j := 0; j < 64; j++ {
			ctl.Read(uint64(j)*64, 0, buf)
			ctl.Write(1<<20+uint64(j)*64, 0, buf)
		}
		ctl.DrainWrites()
		var firstRd, firstWr int64 = -1, -1
		for _, ev := range tr.Events {
			if ev.Kind == stats.RdCAS && firstRd == -1 {
				firstRd = ev.AtPs
			}
			if ev.Kind == stats.WrCAS && firstWr == -1 {
				firstWr = ev.AtPs
			}
		}
		slackSum += firstWr - firstRd
	}
	b.ReportMetric(float64(slackSum)/float64(b.N)/1000, "rd-to-wr-slack-ns")
}

// BenchmarkForceRecycleRate validates §VII-A: with the paper's 2048-page
// Scratchpad, Force-Recycle calls are effectively zero; the sweep shows
// the rate rising as the Scratchpad shrinks.
func BenchmarkForceRecycleRate(b *testing.B) {
	for _, pages := range []int{8, 64, 2048} {
		b.Run(benchName("scratchpad", pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PaperDeviceConfig(dram.SmallGeometry())
				cfg.ScratchpadPages = pages
				cfg.ConfigPages = pages
				sys, err := sim.NewSystem(sim.SystemConfig{
					Params: sim.DefaultParams(), LLCBytes: 4 << 20, LLCWays: 8,
					WithSmartDIMM: true, DeviceConfig: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				bk := &offload.SmartDIMM{Sys: sys}
				payload := corpus.Generate(corpus.Text, 4096, 1)
				for r := 0; r < 32; r++ {
					conn, err := bk.NewConn(offload.TLS, r, 4096)
					if err != nil {
						b.Fatal(err)
					}
					offload.StagePayloadDMA(sys, conn, payload)
					if _, err := bk.Process(offload.TLS, 0, conn, 4096); err != nil {
						b.Fatal(err)
					}
				}
				st := sys.Driver.Stats()
				b.ReportMetric(float64(st.ForceRecycleCalls)/float64(st.CompCpyCalls), "force-recycles-per-compcpy")
			}
		})
	}
}

// --- DESIGN.md §5 ablations ----------------------------------------------------

// BenchmarkCuckooOccupancy sweeps translation-table occupancy: at the
// paper's <33% the displacement rate is near zero; pushing occupancy up
// degrades insertion.
func BenchmarkCuckooOccupancy(b *testing.B) {
	for _, fill := range []int{2048, 4096, 8192} { // 17%, 33%, 67% of 12288
		b.Run(benchName("entries", fill), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := cuckoo.NewPaperConfig[uint64]()
				for k := 0; k < fill; k++ {
					key := uint64(k)*2654435761 + uint64(i)
					if err := t.Insert(key, uint64(k)); err != nil {
						b.ReportMetric(1, "insert-failures")
					}
				}
				st := t.Stats()
				b.ReportMetric(float64(st.Displacements)/float64(st.Inserts), "displacements-per-insert")
				b.ReportMetric(float64(st.FirstTryInserts)/float64(st.Inserts), "first-try-rate")
			}
		})
	}
}

// BenchmarkDeflateWindowAblation sweeps the DSA's parallelization window
// and bank count (§V-B): wider windows and more ports improve ratio at
// hardware cost.
func BenchmarkDeflateWindowAblation(b *testing.B) {
	in := corpus.Generate(corpus.HTML, 16384, 3)
	configs := []struct {
		name   string
		window int
		ports  int
	}{
		{"w4-p2", 4, 2}, {"w8-p8", 8, 8}, {"w16-p8", 16, 8},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			enc := deflate.NewHWEncoder(deflate.HWConfig{
				ParallelWindow: c.window, Banks: 8, PortsPerBank: c.ports,
				WindowSize: 4096, TableEntries: 4096,
			})
			b.SetBytes(int64(len(in)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out = enc.Compress(in)
			}
			b.ReportMetric(float64(len(in))/float64(len(out)), "compression-ratio")
			st := enc.Stats()
			b.ReportMetric(float64(st.BankConflicts)/float64(st.CandidateProbes+1), "bank-conflict-rate")
		})
	}
}

// BenchmarkAblationOrderedCopy compares CompCpy's ordered mode (membar
// per 64B, required by sequential DSAs) against unordered copies.
func BenchmarkAblationOrderedCopy(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		name := "unordered"
		if ordered {
			name = "ordered"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := sim.NewSystem(sim.SystemConfig{
				Params: sim.DefaultParams(), LLCBytes: 1 << 20, LLCWays: 8,
				WithSmartDIMM: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			key := []byte("0123456789abcdef")
			iv := []byte("abcdefghijkl")
			g, _ := aesgcm.NewGCM(key)
			eiv, _ := g.EIV(iv)
			payload := corpus.Generate(corpus.Text, 4096-core.TagSize, 1)
			var total int64
			for i := 0; i < b.N; i++ {
				sbuf, err := sys.Driver.AllocPages(1)
				if err != nil {
					b.Fatal(err)
				}
				dbuf, _ := sys.Driver.AllocPages(1)
				src := make([]byte, core.PageSize)
				copy(src, payload)
				sys.Hier.Write(0, sbuf, src)
				ctx := &core.OffloadContext{
					Op: core.OpTLSEncrypt,
					TLS: &core.TLSContext{Direction: aesgcm.Encrypt, Key: key, IV: iv,
						H: g.H(), EIV: eiv, PayloadLen: len(payload)},
					Length: len(payload),
				}
				lat, err := sys.Driver.CompCpy(0, dbuf, sbuf, core.PageSize, ctx, ordered)
				if err != nil {
					b.Fatal(err)
				}
				total += lat
				sys.Driver.Use(0, dbuf, core.PageSize)
				sys.Driver.FreePages(sbuf, 1)
				sys.Driver.FreePages(dbuf, 1)
			}
			b.ReportMetric(float64(total)/float64(b.N)/1000, "compcpy-model-ns")
		})
	}
}

// BenchmarkAblationAdaptiveThreshold sweeps the LLC miss-rate threshold
// of the adaptive policy (§V-C).
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	for _, thr := range []float64{0.01, 0.10, 0.50} {
		b.Run(benchName("thr-pct", int(thr*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := sim.DefaultParams()
				p.AdaptiveMissRateThreshold = thr
				sys, err := sim.NewSystem(sim.SystemConfig{
					Params: p, LLCBytes: 256 << 10, LLCWays: 8, WithSmartDIMM: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				ad := &offload.Adaptive{Sys: sys,
					CPUBackend: &offload.CPU{Sys: sys}, DIMM: &offload.SmartDIMM{Sys: sys},
					ProbeInterval: 8}
				conn, err := ad.NewConn(offload.TLS, 1, 4096)
				if err != nil {
					b.Fatal(err)
				}
				payload := corpus.Generate(corpus.Text, 4096, 1)
				big, _ := sys.AllocPlain(1 << 20)
				for r := 0; r < 32; r++ {
					offload.StagePayloadCPU(sys, 0, conn, payload)
					if _, err := ad.Process(offload.TLS, 0, conn, len(payload)); err != nil {
						b.Fatal(err)
					}
					sys.Hier.Read(nil, 1, big, 128<<10) // background contention
				}
				b.ReportMetric(float64(ad.OffloadedN)/float64(ad.OffloadedN+ad.OnCPUN), "offload-fraction")
			}
		})
	}
}

// BenchmarkAblationGHASHStride compares the paper's stride-4 H-power
// precomputation against a serial chain for out-of-order GHASH.
func BenchmarkAblationGHASHStride(b *testing.B) {
	h := make([]byte, 16)
	h[3] = 0x5A
	const n = 1024 // powers for a 16KB record
	b.Run("stride4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aesgcm.NewHPowers(h, n)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Serial dependency chain: H^i = H^(i-1) * H.
			he := aesgcm.LoadEl(h)
			cur := he
			for k := 1; k < n; k++ {
				cur = cur.Mul(he)
			}
			_ = cur
		}
	})
}

// BenchmarkAblationNoSelfRecycle disables the self-recycling opportunity
// by giving the LLC enough capacity that no writebacks occur, forcing
// every Scratchpad page to wait for Force-Recycle — the cost the
// self-recycling design avoids.
func BenchmarkAblationNoSelfRecycle(b *testing.B) {
	run := func(b *testing.B, llcBytes int, pages int) (selfRecycles, forceRecycles float64) {
		cfg := core.PaperDeviceConfig(dram.SmallGeometry())
		cfg.ScratchpadPages = pages
		cfg.ConfigPages = pages
		sys, err := sim.NewSystem(sim.SystemConfig{
			Params: sim.DefaultParams(), LLCBytes: llcBytes, LLCWays: 8,
			WithSmartDIMM: true, DeviceConfig: &cfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		bk := &offload.SmartDIMM{Sys: sys}
		payload := corpus.Generate(corpus.Text, 4096, 1)
		for r := 0; r < 24; r++ {
			conn, err := bk.NewConn(offload.TLS, r, 4096)
			if err != nil {
				b.Fatal(err)
			}
			offload.StagePayloadDMA(sys, conn, payload)
			if _, err := bk.Process(offload.TLS, 0, conn, 4096); err != nil {
				b.Fatal(err)
			}
		}
		return float64(sys.Dev.Stats().SelfRecycles), float64(sys.Driver.Stats().ForceRecycleCalls)
	}
	b.Run("contended-llc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sr, fr := run(b, 128<<10, 8)
			b.ReportMetric(sr, "self-recycles")
			b.ReportMetric(fr, "force-recycles")
		}
	})
	b.Run("oversized-llc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sr, fr := run(b, 16<<20, 8)
			b.ReportMetric(sr, "self-recycles")
			b.ReportMetric(fr, "force-recycles")
		}
	})
}

// BenchmarkCompCpyThroughput measures raw CompCpy offload throughput for
// the two DSAs.
func BenchmarkCompCpyThroughput(b *testing.B) {
	b.Run("tls-4KB", func(b *testing.B) {
		sys, _ := sim.NewSystem(sim.SystemConfig{
			Params: sim.DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8, WithSmartDIMM: true,
		})
		bk := &offload.SmartDIMM{Sys: sys}
		conn, err := bk.NewConn(offload.TLS, 1, 4096)
		if err != nil {
			b.Fatal(err)
		}
		payload := corpus.Generate(corpus.Text, 4096, 1)
		offload.StagePayloadDMA(sys, conn, payload)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bk.Process(offload.TLS, 0, conn, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compress-4KB", func(b *testing.B) {
		sys, _ := sim.NewSystem(sim.SystemConfig{
			Params: sim.DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8, WithSmartDIMM: true,
		})
		bk := &offload.SmartDIMM{Sys: sys}
		conn, err := bk.NewConn(offload.Compression, 1, core.MaxCompressInput)
		if err != nil {
			b.Fatal(err)
		}
		payload := corpus.Generate(corpus.HTML, core.MaxCompressInput, 1)
		offload.StagePayloadDMA(sys, conn, payload)
		b.SetBytes(int64(core.MaxCompressInput))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bk.Process(offload.Compression, 0, conn, core.MaxCompressInput); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTelemetryDisabled pins the zero-overhead-when-disabled
// contract: every instrumentation site degenerates to one nil compare
// on a disabled (nil) tracer — no allocations, low single-digit ns.
func BenchmarkTelemetryDisabled(b *testing.B) {
	var tr *telemetry.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(0, "span", 1, 2)
		tr.Instant(0, "instant", 3)
		tr.Counter(0, "counter", 4, 5)
		tr.AsyncBegin(0, "req", 6, 7)
		tr.AsyncEnd(0, "req", 6, 8)
		tr.Track("track")
	})
	if allocs != 0 {
		b.Fatalf("disabled tracer allocates: %v allocs/op", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Span(0, "span", int64(i), 2)
	}
}

func benchName(prefix string, v int) string {
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + "-" + digits
}
