// The alert engine: declarative rules evaluated on every scrape tick,
// with For-duration damping and an inactive→pending→firing→resolved
// state machine. Every transition lands in a deterministic alert log
// and, when a tracer is attached, as a trace instant on the obs track.

package obs

import (
	"fmt"
	"strings"
)

// RuleKind discriminates rule condition families.
type RuleKind uint8

const (
	// KindThreshold fires while Reduce(Series) > Above.
	KindThreshold RuleKind = iota
	// KindAbsence fires while the series has no point newer than
	// WindowPs (or has never reported at all).
	KindAbsence
	// KindBurnRate is multi-window SLO error-budget alerting: fires
	// while the budget burn rate exceeds Factor over BOTH the long and
	// the short window. The long window makes the page mean something
	// (sustained burn), the short window makes it reset quickly once
	// the condition clears.
	KindBurnRate
)

// Reduce selects how a threshold rule collapses its series window to
// one value.
type Reduce uint8

const (
	ReduceLast  Reduce = iota // newest value; WindowPs unused
	ReduceDelta               // newest minus window baseline (counters)
)

func (r Reduce) String() string {
	switch r {
	case ReduceLast:
		return "last"
	case ReduceDelta:
		return "delta"
	}
	return "?"
}

// Rule is one declarative alert. Build them with the Threshold and
// BurnRate constructors or, for an absence rule, as a literal;
// zero-valued knobs take defaults in Scraper.New.
type Rule struct {
	Name   string
	Kind   RuleKind
	Series string

	// Threshold knobs.
	Reduce   Reduce
	WindowPs int64
	Above    float64

	// BurnRate knobs: the series is compared against SLO point-by-point;
	// frac-over / Budget is the burn rate, evaluated over both windows.
	SLO             float64
	Budget          float64 // allowed frac-over (error budget), e.g. 0.1
	Factor          float64 // fire while burn > Factor on both windows
	LongPs, ShortPs int64

	// ForPs damps flapping: the condition must hold continuously for
	// ForPs before the rule fires (0 fires on the first true tick).
	ForPs int64
	// MinPoints gates evaluation until the (long) window holds at least
	// this many points, so a cold series can't page. Zero selects 1.
	MinPoints int
}

// Threshold builds a threshold rule: fire while red(series) > above.
func Threshold(name, series string, red Reduce, windowPs int64, above float64, forPs int64) Rule {
	return Rule{Name: name, Kind: KindThreshold, Series: series,
		Reduce: red, WindowPs: windowPs, Above: above, ForPs: forPs}
}

// BurnRate builds a multi-window SLO burn-rate rule over a latency
// series: a point breaches when it exceeds slo; frac-over/budget is the
// burn; fire while burn > factor over both longPs and shortPs.
func BurnRate(name, series string, slo, budget, factor float64, longPs, shortPs, forPs int64) Rule {
	return Rule{Name: name, Kind: KindBurnRate, Series: series,
		SLO: slo, Budget: budget, Factor: factor, LongPs: longPs, ShortPs: shortPs, ForPs: forPs}
}

func (r *Rule) defaults() error {
	if r.Name == "" || r.Series == "" {
		return fmt.Errorf("obs: rule needs a name and a series")
	}
	if r.MinPoints <= 0 {
		r.MinPoints = 1
	}
	switch r.Kind {
	case KindThreshold:
		if r.Reduce != ReduceLast && r.WindowPs <= 0 {
			return fmt.Errorf("obs: rule %s: windowed reduce %v needs WindowPs", r.Name, r.Reduce)
		}
	case KindAbsence:
		if r.WindowPs <= 0 {
			return fmt.Errorf("obs: rule %s: absence needs WindowPs", r.Name)
		}
	case KindBurnRate:
		if r.Budget <= 0 || r.Factor <= 0 || r.LongPs <= 0 || r.ShortPs <= 0 {
			return fmt.Errorf("obs: rule %s: burn-rate needs Budget, Factor, LongPs, ShortPs", r.Name)
		}
		if r.ShortPs > r.LongPs {
			return fmt.Errorf("obs: rule %s: ShortPs > LongPs", r.Name)
		}
	default:
		return fmt.Errorf("obs: rule %s: unknown kind %d", r.Name, r.Kind)
	}
	return nil
}

// eval returns whether the rule's raw condition holds at nowPs, plus
// the value the transition log reports.
func (r *Rule) eval(st *Store, nowPs int64) (bool, float64) {
	se := st.Series(r.Series)
	switch r.Kind {
	case KindAbsence:
		stale := se.StaleForPs(nowPs)
		if stale < 0 {
			return true, -1 // never reported
		}
		return stale > r.WindowPs, float64(stale)
	case KindThreshold:
		if se.Len() < r.MinPoints {
			return false, 0
		}
		var v float64
		switch r.Reduce {
		case ReduceLast:
			v = se.LastValue()
		case ReduceDelta:
			v = se.Delta(nowPs, r.WindowPs)
		}
		return v > r.Above, v
	case KindBurnRate:
		if se.CountOver(nowPs, r.LongPs) < r.MinPoints {
			return false, 0
		}
		burnLong := se.FracOver(r.SLO, nowPs, r.LongPs) / r.Budget
		burnShort := se.FracOver(r.SLO, nowPs, r.ShortPs) / r.Budget
		// Report the binding (smaller) burn: both must exceed Factor.
		v := burnLong
		if burnShort < v {
			v = burnShort
		}
		return burnLong > r.Factor && burnShort > r.Factor, v
	}
	return false, 0
}

// AlertState is one rule's position in the damped state machine.
type AlertState uint8

const (
	Inactive AlertState = iota
	Pending             // condition true, waiting out ForPs
	Firing
)

func (s AlertState) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Pending:
		return "pending"
	case Firing:
		return "firing"
	}
	return "?"
}

// Transition is one alert state change, the unit of the alert log.
type Transition struct {
	AtPs     int64
	Rule     string
	From, To AlertState
	V        float64 // the rule's reported value at the transition
}

func (t Transition) String() string {
	return fmt.Sprintf("%d %s %s->%s v=%g", t.AtPs, t.Rule, t.From, t.To, t.V)
}

// ruleState is a rule plus its live state-machine position.
type ruleState struct {
	rule    Rule
	state   AlertState
	sincePs int64 // when the condition last turned true (Pending entry)
}

// step advances one rule by one scrape tick and returns the transition
// taken, if any.
func (rs *ruleState) step(st *Store, nowPs int64) (Transition, bool) {
	cond, v := rs.rule.eval(st, nowPs)
	from := rs.state
	switch rs.state {
	case Inactive:
		if !cond {
			return Transition{}, false
		}
		rs.sincePs = nowPs
		if rs.rule.ForPs <= 0 {
			rs.state = Firing
		} else {
			rs.state = Pending
		}
	case Pending:
		if !cond {
			rs.state = Inactive
		} else if nowPs-rs.sincePs >= rs.rule.ForPs {
			rs.state = Firing
		} else {
			return Transition{}, false
		}
	case Firing:
		if cond {
			return Transition{}, false
		}
		rs.state = Inactive
	}
	return Transition{AtPs: nowPs, Rule: rs.rule.Name, From: from, To: rs.state, V: v}, true
}

// AlertLog renders transitions one per line — a byte-compared artifact.
func AlertLog(ts []Transition) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
