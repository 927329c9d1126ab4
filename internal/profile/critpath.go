// Critical-path analysis over async request lifecycles. The server
// wraps every request in an AsyncBegin/AsyncEnd pair; the stage spans
// that serve it (parse/copy/ulp/tx on the worker tracks, wire on the
// nic track, drains and CompCpy below them) overlap that window. For
// each request this file computes how much of the window each stage
// name blocks — the interval-union of that stage's spans clipped to the
// window — plus the uncovered remainder ("(wait)": queueing for a
// worker, think-time alignment, backpressure), and names the dominant
// stage. Aggregated over every request this reproduces the paper's
// per-stage breakdown argument (Fig. 13 / §VI): on the SmartDIMM
// placement the copy stage's share is ~0 because no copy spans exist to
// block on.
//
// Stage attribution is by span name across all requests on the system,
// not per-request tagging: a span of stage "ulp" concurrent with a
// request's window counts as "ulp" pressure on that request whether or
// not it served that exact connection — for a closed-loop single-server
// system this is the blocking structure that bounds the latency
// distribution, and it needs no re-instrumentation of any component.
//
// Merged shard traces (fleet.Sharded, cluster) break both assumptions
// of the single-system analysis: per-shard request ids repeat (shard 0
// and shard 1 each count "req" from 1), and shards are disjoint
// hardware — an "ulp" span on shard 1 exerts no pressure on a shard-0
// request. Async pairing is therefore always per-track, and ShardAware
// additionally scopes span attribution to the request's own shard
// prefix, with the shared prefixes ("fe/", "rt/": the dispatch fabric
// and the router — genuinely shared planes) attributing everywhere. That
// is what surfaces dispatch-fabric wait as its own stage instead of
// folding it into "(wait)".
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// WaitStage is the pseudo-stage for window time no span covers.
const WaitStage = "(wait)"

// StageBlock is one stage's blocking contribution to a request.
type StageBlock struct {
	Name    string
	FirstPs int64 // earliest overlap start (waterfall ordering)
	Ps      int64 // union of this stage's spans clipped to the window
}

// Request is one analyzed request lifecycle.
type Request struct {
	ID       uint64
	StartPs  int64
	EndPs    int64
	Stages   []StageBlock // ordered by first overlap, then name
	Dominant string       // stage with the largest blocked time
	WaitPs   int64        // window time covered by no span
}

// LatencyPs returns the request's end-to-end simulated latency.
func (r *Request) LatencyPs() int64 { return r.EndPs - r.StartPs }

// StageTotal is one row of the fleet-level blocking table.
type StageTotal struct {
	Name      string
	BlockedPs int64 // summed blocked time across requests
	SharePct  float64
	Dominant  int // requests where this stage blocked the most
}

// CritPath is the result of analyzing one trace.
type CritPath struct {
	Requests []Request
	Stages   []StageTotal // sorted by BlockedPs desc, name asc
	// TotalBlockedPs sums every stage's blocked time (the share
	// denominator); TotalLatencyPs sums request latencies.
	TotalBlockedPs int64
	TotalLatencyPs int64
}

// Options narrow the analysis window and span universe.
type Options struct {
	// FromPs/ToPs, when nonzero, keep only requests fully inside
	// [FromPs, ToPs] — the measurement window, excluding warmup and the
	// drain tail.
	FromPs, ToPs int64
	// ShardAware analyzes a merged multi-shard trace: every span and
	// request window carries its shard prefix (the track name up to and
	// including the first '/'), and a span attributes to a request only
	// when the prefixes match or the span's prefix is shared — disjoint
	// sub-systems exert no pressure on each other's requests.
	ShardAware bool
}

// excludedTrack is the track whose spans are containers, not work: the
// engine's coarse RunUntil windows. Under Options.ShardAware the name is
// matched after stripping the shard prefix, so it excludes "s0/engine"
// and "n2/engine" alike.
const excludedTrack = "engine"

// sharedPrefix reports whether a shard prefix's spans attribute to every
// request regardless of shard: "fe/" and "rt/", the dispatch fabric and
// the cluster router.
func sharedPrefix(p string) bool { return p == "fe/" || p == "rt/" }

// span is one clipped work interval.
type cpSpan struct {
	at, end int64
	name    string
	prefix  string // shard prefix under Options.ShardAware, else ""
}

// shardPrefix returns the track name's shard prefix including the
// slash ("s0/", "fe/"), or "" for an unprefixed track.
func shardPrefix(track string) string {
	if i := strings.IndexByte(track, '/'); i >= 0 {
		return track[:i+1]
	}
	return ""
}

// AnalyzeTracer runs the critical-path analysis on a live Tracer.
func AnalyzeTracer(tr *telemetry.Tracer, opt Options) *CritPath {
	return Analyze(tr.Tracks(), tr.Events(), opt)
}

// Analyze computes per-request and fleet-level blocking attribution
// from a track table and event stream in emission order.
func Analyze(tracks []string, events []telemetry.Event, opt Options) *CritPath {
	trackName := func(id telemetry.TrackID) string {
		if int(id) < len(tracks) {
			return tracks[id]
		}
		return ""
	}

	var spans []cpSpan
	var maxDur int64
	for _, e := range events {
		if e.Kind != telemetry.KindSpan || e.DurPs <= 0 {
			continue
		}
		track, prefix := trackName(e.Track), ""
		if opt.ShardAware {
			prefix = shardPrefix(track)
			track = strings.TrimPrefix(track, prefix)
		}
		if track == excludedTrack {
			continue
		}
		spans = append(spans, cpSpan{at: e.AtPs, end: e.AtPs + e.DurPs, name: e.Name, prefix: prefix})
		if e.DurPs > maxDur {
			maxDur = e.DurPs
		}
	}
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].at != spans[b].at {
			return spans[a].at < spans[b].at
		}
		if spans[a].end != spans[b].end {
			return spans[a].end < spans[b].end
		}
		return spans[a].name < spans[b].name
	})

	cp := &CritPath{}
	// Pair async begins with ends by (track, name, id), in emission
	// order. The track component is what keeps merged shard traces
	// correct: shard 0 and shard 1 both number their "req" lifecycles
	// from 1, and only the (remapped, unique) track separates them.
	type akey struct {
		track telemetry.TrackID
		name  string
		id    uint64
	}
	open := map[akey][]int64{}
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindAsyncBegin:
			k := akey{track: e.Track, name: e.Name, id: e.ID}
			open[k] = append(open[k], e.AtPs)
		case telemetry.KindAsyncEnd:
			k := akey{track: e.Track, name: e.Name, id: e.ID}
			starts := open[k]
			if len(starts) == 0 {
				continue
			}
			start := starts[0]
			open[k] = starts[1:]
			if opt.FromPs != 0 && start < opt.FromPs {
				continue
			}
			if opt.ToPs != 0 && e.AtPs > opt.ToPs {
				continue
			}
			prefix := ""
			if opt.ShardAware {
				prefix = shardPrefix(trackName(e.Track))
			}
			cp.Requests = append(cp.Requests, analyzeRequest(e.ID, start, e.AtPs, prefix, spans, maxDur, opt.ShardAware))
		}
	}

	totals := map[string]*StageTotal{}
	var names []string
	for i := range cp.Requests {
		r := &cp.Requests[i]
		cp.TotalLatencyPs += r.LatencyPs()
		for _, s := range r.Stages {
			t := totals[s.Name]
			if t == nil {
				t = &StageTotal{Name: s.Name}
				totals[s.Name] = t
				names = append(names, s.Name)
			}
			t.BlockedPs += s.Ps
			cp.TotalBlockedPs += s.Ps
		}
		if t := totals[r.Dominant]; t != nil {
			t.Dominant++
		}
	}
	sort.Strings(names)
	for _, n := range names {
		t := totals[n]
		if cp.TotalBlockedPs > 0 {
			t.SharePct = 100 * float64(t.BlockedPs) / float64(cp.TotalBlockedPs)
		}
		cp.Stages = append(cp.Stages, *t)
	}
	sort.SliceStable(cp.Stages, func(a, b int) bool {
		if cp.Stages[a].BlockedPs != cp.Stages[b].BlockedPs {
			return cp.Stages[a].BlockedPs > cp.Stages[b].BlockedPs
		}
		return cp.Stages[a].Name < cp.Stages[b].Name
	})
	return cp
}

// analyzeRequest attributes one request window across stage names.
// spans is sorted by start; maxDur bounds the backward search. Under
// shardAware, only spans from the request's own shard (reqPrefix) or
// from a shared plane attribute; foreign shards are invisible.
func analyzeRequest(id uint64, start, end int64, reqPrefix string, spans []cpSpan, maxDur int64, shardAware bool) Request {
	r := Request{ID: id, StartPs: start, EndPs: end}
	// First span possibly overlapping: start time > start-maxDur.
	lo := sort.Search(len(spans), func(i int) bool { return spans[i].at > start-maxDur })

	type acc struct {
		first int64
		ivals []cpSpan // clipped, per stage, in start order
	}
	stages := map[string]*acc{}
	var names []string
	var all []cpSpan // clipped union input for the wait computation
	for i := lo; i < len(spans) && spans[i].at < end; i++ {
		s := spans[i]
		if s.end <= start {
			continue
		}
		if shardAware && s.prefix != reqPrefix && !sharedPrefix(s.prefix) {
			continue
		}
		at, e := s.at, s.end
		if at < start {
			at = start
		}
		if e > end {
			e = end
		}
		a := stages[s.name]
		if a == nil {
			a = &acc{first: at}
			stages[s.name] = a
			names = append(names, s.name)
		}
		a.ivals = append(a.ivals, cpSpan{at: at, end: e})
		all = append(all, cpSpan{at: at, end: e})
	}
	sort.Strings(names)
	for _, n := range names {
		a := stages[n]
		r.Stages = append(r.Stages, StageBlock{Name: n, FirstPs: a.first, Ps: unionPs(a.ivals)})
	}
	covered := unionPs(all)
	r.WaitPs = (end - start) - covered
	if r.WaitPs > 0 {
		r.Stages = append(r.Stages, StageBlock{Name: WaitStage, FirstPs: start, Ps: r.WaitPs})
	}
	sort.SliceStable(r.Stages, func(a, b int) bool {
		if r.Stages[a].FirstPs != r.Stages[b].FirstPs {
			return r.Stages[a].FirstPs < r.Stages[b].FirstPs
		}
		return r.Stages[a].Name < r.Stages[b].Name
	})
	r.Dominant = ""
	var max int64 = -1
	for _, s := range r.Stages {
		if s.Ps > max || (s.Ps == max && s.Name < r.Dominant) {
			max, r.Dominant = s.Ps, s.Name
		}
	}
	return r
}

// unionPs returns the total length of the union of intervals (already
// sorted by start — insertion order above preserves the global sort).
func unionPs(ivals []cpSpan) int64 {
	var total int64
	var curEnd int64 = -1
	var curStart int64
	for _, iv := range ivals {
		if curEnd < 0 || iv.at > curEnd {
			if curEnd >= 0 {
				total += curEnd - curStart
			}
			curStart, curEnd = iv.at, iv.end
		} else if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	if curEnd >= 0 {
		total += curEnd - curStart
	}
	return total
}

// WriteTable renders the fleet-level "top blocking stage" table.
func (cp *CritPath) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "critical path: %d requests, total latency %s, blocked time %s\n",
		len(cp.Requests), fmtPs(cp.TotalLatencyPs), fmtPs(cp.TotalBlockedPs)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %14s %8s %10s\n", "stage", "blocked", "share%", "dominant"); err != nil {
		return err
	}
	for _, s := range cp.Stages {
		if _, err := fmt.Fprintf(w, "%-10s %14s %8s %10d\n",
			s.Name, fmtPs(s.BlockedPs), pct(s.BlockedPs, cp.TotalBlockedPs), s.Dominant); err != nil {
			return err
		}
	}
	return nil
}

// WriteWaterfall renders the per-request waterfall for the first n
// requests (0 = all): the request window and each stage's blocked time
// in first-overlap order.
func (cp *CritPath) WriteWaterfall(w io.Writer, n int) error {
	reqs := cp.Requests
	if n > 0 && n < len(reqs) {
		reqs = reqs[:n]
	}
	for _, r := range reqs {
		if _, err := fmt.Fprintf(w, "req 0x%x: start %s latency %s dominant %s\n",
			r.ID, fmtPs(r.StartPs), fmtPs(r.LatencyPs()), r.Dominant); err != nil {
			return err
		}
		for _, s := range r.Stages {
			if _, err := fmt.Fprintf(w, "  +%-14s %-10s %s\n",
				fmtPs(s.FirstPs-r.StartPs), s.Name, fmtPs(s.Ps)); err != nil {
				return err
			}
		}
	}
	return nil
}

// P99LatencyPs returns the p-th percentile of request latency using
// nearest-rank over the analyzed requests (0 with none).
func (cp *CritPath) PercentileLatencyPs(p float64) int64 {
	if len(cp.Requests) == 0 {
		return 0
	}
	lats := make([]int64, len(cp.Requests))
	for i := range cp.Requests {
		lats[i] = cp.Requests[i].LatencyPs()
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	if p <= 0 {
		return lats[0]
	}
	if p >= 100 {
		return lats[len(lats)-1]
	}
	rank := int(float64(len(lats))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(lats) {
		rank = len(lats) - 1
	}
	return lats[rank]
}
