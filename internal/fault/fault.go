// Package fault is a seeded, deterministic fault-injection framework.
//
// Every layer of the simulator that can misbehave (DRAM ALERT_N, memory
// controller CRC retries, DSA engines, translation-table inserts, offload
// backends, the network link) consults an *Injector at a named site:
//
//	if inj.Fire("memctrl.crc", nowPs) { ... take the fault path ... }
//
// A nil *Injector never fires and costs one nil check — the production
// configuration. When an Injector is armed, each site draws from its own
// RNG stream derived from (seed, site name), so whether site A fires is
// independent of how often site B is consulted; a schedule replayed with
// the same seed and the same per-site consultation sequence reproduces
// the identical fault trace, byte for byte.
//
// Plans compose the fault shapes the robustness literature cares about:
// one-shot (a single transient), periodic (a recurring glitch), windowed
// (an outage interval in simulated time), probabilistic (Bernoulli), and
// Gilbert-Elliott (correlated bursts). The Gilbert-Elliott chain is also
// exported standalone for packet-loss models that want to step it per
// packet rather than per consultation.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
)

// Event records one consultation of a site that fired. Consultations
// that do not fire are counted but not stored, keeping long soaks cheap.
type Event struct {
	Site string
	Seq  int64 // 1-based consultation number at this site
	Now  int64 // caller-supplied timestamp (ps or cycles, site-defined)
	// Link identifies the directed link of a FireLink consultation
	// ("src>dst"); empty for plain Fire sites.
	Link string
}

// Plan decides whether a given consultation of a site fires. The rng is
// the site's private stream; seq is the 1-based consultation count and
// now the caller's clock. Implementations may keep state (GE does).
type Plan interface {
	fire(rng *rand.Rand, seq, now int64) bool
}

// OneShot fires exactly once, on the Nth consultation (1-based).
type OneShot struct{ N int64 }

func (p OneShot) fire(_ *rand.Rand, seq, _ int64) bool { return seq == p.N }

// Periodic fires every Every-th consultation, starting at Offset+1.
// Every <= 0 never fires.
type Periodic struct{ Every, Offset int64 }

func (p Periodic) fire(_ *rand.Rand, seq, _ int64) bool {
	if p.Every <= 0 || seq <= p.Offset {
		return false
	}
	return (seq-p.Offset)%p.Every == 0
}

// window fires with probability prob while fromPs <= now < toPs.
type window struct {
	fromPs, toPs int64
	prob         float64
}

func (p window) fire(rng *rand.Rand, _, now int64) bool {
	if now < p.fromPs || now >= p.toPs {
		return false
	}
	return rng.Float64() < p.prob
}

// Bernoulli fires independently with probability Prob on every
// consultation.
type Bernoulli struct{ Prob float64 }

func (p Bernoulli) fire(rng *rand.Rand, _, _ int64) bool {
	return p.Prob > 0 && rng.Float64() < p.Prob
}

// Burst adapts a Gilbert-Elliott chain as a Plan: each consultation
// steps the chain once. Arm gives every Burst fresh chain state, so the
// same value can arm several sites.
type Burst struct{ GE GEConfig }

func (b Burst) fire(rng *rand.Rand, seq, now int64) bool {
	// Unreachable: Arm replaces Burst with a stateful burstState.
	return (&burstState{cfg: b.GE}).fire(rng, seq, now)
}

type burstState struct {
	cfg GEConfig
	bad bool
}

func (b *burstState) fire(rng *rand.Rand, _, _ int64) bool {
	return b.cfg.step(rng, &b.bad)
}

// linkPlan is implemented by plans that decide per directed link
// (src, dst) rather than per bare consultation — node-level network
// partitions. FireLink consults it; plans without it fall back to fire,
// ignoring direction.
type linkPlan interface {
	cuts(src, dst int, now int64) bool
}

// Partition is a windowed node-level network partition: while
// FromPs <= now < ToPs, traffic from any node in A to any node in B is
// cut (and B to A too, unless OneWay makes the partition asymmetric).
// Nodes appearing in neither set are unaffected. Arm it on the site the
// network layer consults through FireLink; as a plain Fire plan it
// reports only whether the window is active, direction-blind.
type Partition struct {
	FromPs, ToPs int64
	A, B         []int
	// OneWay cuts only the A->B direction, modelling asymmetric
	// partitions (a node that can send but not receive, or vice versa).
	OneWay bool
}

func (p Partition) active(now int64) bool { return now >= p.FromPs && now < p.ToPs }

func (p Partition) fire(_ *rand.Rand, _, now int64) bool { return p.active(now) }

func (p Partition) cuts(src, dst int, now int64) bool {
	if !p.active(now) {
		return false
	}
	if slices.Contains(p.A, src) && slices.Contains(p.B, dst) {
		return true
	}
	return !p.OneWay && slices.Contains(p.B, src) && slices.Contains(p.A, dst)
}

// Partitions composes several Partition windows into one plan: a link
// is cut while any member cuts it.
type Partitions []Partition

func (ps Partitions) fire(rng *rand.Rand, seq, now int64) bool {
	for _, p := range ps {
		if p.fire(rng, seq, now) {
			return true
		}
	}
	return false
}

func (ps Partitions) cuts(src, dst int, now int64) bool {
	for _, p := range ps {
		if p.cuts(src, dst, now) {
			return true
		}
	}
	return false
}

// site is one named injection point with its plan, private RNG and
// consultation counter.
type site struct {
	plan Plan
	rng  *rand.Rand
	seq  int64
}

// Injector holds the armed plans for a run. The zero value is unusable;
// build with New. A nil *Injector is valid everywhere and never fires.
type Injector struct {
	mu    sync.Mutex
	seed  int64
	sites map[string]*site
	trace []Event
	fired int64
	total int64

	// OnFire, when set, observes every fired event — the telemetry layer
	// hooks it to place fault firings on the trace timeline as instant
	// events without this package importing telemetry. It runs with the
	// injector's lock held: it must not call back into the Injector.
	// now is the caller's clock (ps or cycles, site-defined).
	OnFire func(site string, seq, now int64)
}

// New returns an Injector with no armed sites; seed determines every
// per-site RNG stream.
func New(seed int64) *Injector {
	return &Injector{seed: seed, sites: make(map[string]*site)}
}

// siteSeed derives a per-site stream so the order in which different
// sites are consulted cannot perturb any one site's decisions.
func siteSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Arm installs (or replaces) the plan for a named site. Stateful plans
// (Burst) get fresh state.
func (in *Injector) Arm(name string, p Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if b, ok := p.(Burst); ok {
		p = &burstState{cfg: b.GE}
	}
	in.sites[name] = &site{
		plan: p,
		rng:  rand.New(rand.NewSource(siteSeed(in.seed, name))),
	}
}

// DisarmAll removes every armed plan — used to quiesce injection before
// a drain/cleanup phase whose reads must succeed.
func (in *Injector) DisarmAll() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for name := range in.sites {
		delete(in.sites, name)
	}
}

// Fire reports whether the named site faults at this consultation.
// Nil receivers and unarmed sites never fire.
func (in *Injector) Fire(name string, now int64) bool {
	return in.fire(name, now, -1, -1)
}

// FireLink reports whether the named site cuts the directed link
// src -> dst at this consultation. Plans that understand direction
// (Partition, Partitions) decide per link; any other armed plan falls
// back to its ordinary consultation, direction-blind — so a Bernoulli
// loss plan on a link site behaves like uncorrelated per-message loss.
func (in *Injector) FireLink(name string, src, dst int, now int64) bool {
	return in.fire(name, now, src, dst)
}

func (in *Injector) fire(name string, now int64, src, dst int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.sites[name]
	if !ok {
		return false
	}
	s.seq++
	in.total++
	directed := src >= 0
	if lp, ok := s.plan.(linkPlan); ok && directed {
		if !lp.cuts(src, dst, now) {
			return false
		}
	} else if !s.plan.fire(s.rng, s.seq, now) {
		return false
	}
	in.fired++
	ev := Event{Site: name, Seq: s.seq, Now: now}
	if directed {
		ev.Link = fmt.Sprintf("%d>%d", src, dst)
	}
	in.trace = append(in.trace, ev)
	if in.OnFire != nil {
		in.OnFire(name, s.seq, now)
	}
	return true
}

// Counts returns (consultations, fires) across all sites.
func (in *Injector) Counts() (total, fired int64) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total, in.fired
}

// Trace returns a copy of every fired event in consultation order.
func (in *Injector) Trace() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.trace))
	copy(out, in.trace)
	return out
}

// TraceString renders the fired-event log in a canonical text form, the
// reproducibility artifact: two runs with the same seed and schedule
// must produce equal strings.
func (in *Injector) TraceString() string {
	var b strings.Builder
	for _, e := range in.Trace() {
		if e.Link != "" {
			fmt.Fprintf(&b, "%s seq=%d now=%d link=%s\n", e.Site, e.Seq, e.Now, e.Link)
		} else {
			fmt.Fprintf(&b, "%s seq=%d now=%d\n", e.Site, e.Seq, e.Now)
		}
	}
	return b.String()
}

// --- Gilbert-Elliott bursty-loss chain ------------------------------------

// GEConfig parameterizes a two-state Gilbert-Elliott loss model: the
// chain moves Good->Bad with probability PGoodBad per step and Bad->Good
// with PBadGood; each step loses with LossGood or LossBad depending on
// the current state. Mean burst length is 1/PBadGood steps.
type GEConfig struct {
	PGoodBad, PBadGood float64
	LossGood, LossBad  float64
}

// Enabled reports whether the config describes any loss at all.
func (c GEConfig) Enabled() bool {
	return c.LossBad > 0 || c.LossGood > 0
}

// step advances the chain one event and reports loss. State transition
// is evaluated before the loss draw, so a freshly entered Bad state can
// lose the very event that triggered the transition.
func (c GEConfig) step(rng *rand.Rand, bad *bool) bool {
	if *bad {
		if rng.Float64() < c.PBadGood {
			*bad = false
		}
	} else if rng.Float64() < c.PGoodBad {
		*bad = true
	}
	loss := c.LossGood
	if *bad {
		loss = c.LossBad
	}
	return loss > 0 && rng.Float64() < loss
}

// GilbertElliott is a standalone seeded chain for per-packet stepping.
type GilbertElliott struct {
	cfg GEConfig
	bad bool
	rng *rand.Rand
}

// NewGilbertElliott builds a chain starting in the Good state.
func NewGilbertElliott(cfg GEConfig, seed int64) *GilbertElliott {
	return &GilbertElliott{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Lose steps the chain one packet and reports whether it is lost.
func (g *GilbertElliott) Lose() bool { return g.cfg.step(g.rng, &g.bad) }
