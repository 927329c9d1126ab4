package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/corpus"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// CritPathRow is one placement's critical-path attribution: for every
// measured request, which stage blocked its latency window, aggregated
// into per-stage shares. It is the trace-derived counterpart of
// FigBreakdown's accounting-derived table — the same Fig. 13-style
// argument, but reconstructed purely from the Perfetto event stream, so
// it also validates that the instrumentation tells the same story as
// the server's internal counters. On the SmartDIMM placement the copy
// stage never appears (inline source: no page-cache copy spans exist),
// reproducing the paper's "copy vanishes" claim from the trace alone.
type CritPathRow struct {
	Placement Placement
	Requests  int
	P99Ps     int64
	Dominant  string // stage that blocked the most requests
	// Stages is the full blocking table (share of summed blocked time),
	// sorted by blocked time descending.
	Stages []profile.StageTotal
}

// ShareOf returns the named stage's share of blocked time in percent
// (0 when the stage never blocked — e.g. "copy" on SmartDIMM).
func (r CritPathRow) ShareOf(stage string) float64 {
	for _, s := range r.Stages {
		if s.Name == stage {
			return s.SharePct
		}
	}
	return 0
}

// CritPathBreakdown runs one traced serving window per placement and
// critical-path-analyzes each trace. Traces never leave the run: each
// placement gets a private Tracer, and the analysis happens in-process
// on the recorded events.
func CritPathBreakdown(pool *runner.Pool, sc Scale, mode server.Mode, msgSize int) ([]CritPathRow, error) {
	placements := []Placement{PlaceCPU, PlaceSmartNIC, PlaceQAT, PlaceSmartDIMM}
	type result struct {
		row  CritPathRow
		skip bool
	}
	results, err := runner.Map(context.Background(), pool, placements,
		func(_ context.Context, place Placement, _ int) (result, error) {
			tr := telemetry.New()
			sp := sc.spec(place, mode, msgSize, corpus.HTML, 5)
			sp.Tracer = tr
			st, err := scenario.Build(sp)
			if errors.Is(err, scenario.ErrUnsupported) {
				return result{skip: true}, nil
			}
			if err != nil {
				return result{}, err
			}
			if _, err := st.Run(); err != nil {
				return result{}, err
			}
			cp := profile.AnalyzeTracer(tr, profile.Options{FromPs: sc.WarmupPs})
			row := CritPathRow{Placement: place, Requests: len(cp.Requests),
				P99Ps: cp.PercentileLatencyPs(99), Stages: cp.Stages}
			best := 0
			for _, s := range cp.Stages {
				if s.Dominant > best {
					best, row.Dominant = s.Dominant, s.Name
				}
			}
			return result{row: row}, nil
		})
	if err != nil {
		return nil, err
	}
	var out []CritPathRow
	for _, r := range results {
		if !r.skip {
			out = append(out, r.row)
		}
	}
	return out, nil
}

// WriteCritPathTable renders the per-placement stage-share table the
// `figures -fig critpath` command prints: one row per placement, the
// server pipeline stages plus the uncovered wait share, each as a
// percentage of that placement's total blocked time.
func WriteCritPathTable(w io.Writer, rows []CritPathRow) error {
	cols := append(append([]string{}, server.StageNames[:]...), profile.WaitStage)
	if _, err := fmt.Fprintf(w, "%-24s %8s %10s", "placement", "reqs", "p99(us)"); err != nil {
		return err
	}
	for _, c := range cols {
		if _, err := fmt.Fprintf(w, " %7s%%", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  dominant\n"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-24s %8d %10.1f", r.Placement, r.Requests,
			float64(r.P99Ps)/float64(sim.Us)); err != nil {
			return err
		}
		for _, c := range cols {
			if _, err := fmt.Fprintf(w, " %8.1f", r.ShareOf(c)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  %s\n", r.Dominant); err != nil {
			return err
		}
	}
	return nil
}
