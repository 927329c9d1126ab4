package chaos

// Incident-soak tests: the pinned scenario must reproduce the full
// alert narrative — burn-rate page, breaker alert, both resolved — with
// one incident bundle per firing, and the run canonical plus every
// bundle must replay byte-identically from the seed, serial or pooled,
// at any GOMAXPROCS.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/runner/runnertest"
)

// The deterministic alert sequence for seed 7 (calibrated against the
// pinned scenario): the crowd breaches the tail at 3.8ms, the page
// fires at 4.0ms, the injected fault trips the breaker alert at 4.2ms,
// the breaker resolves when the trip slides out of its window, and the
// page resolves once the scaled-up fleet drains the backlog.
var wantAlertLog = strings.Join([]string{
	"3800000000 slo-burn inactive->pending v=2.4",
	"4000000000 slo-burn pending->firing v=3.2",
	"4200000000 breaker-trip inactive->firing v=1",
	"4500000000 breaker-trip firing->inactive v=0",
	"9800000000 slo-burn firing->inactive v=2",
	"",
}, "\n")

func TestIncidentSoak(t *testing.T) {
	rep, incidents, err := RunIncidentSoak(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	canonical := rep.Artifact("canonical")
	if !strings.Contains(canonical, "--- alerts ---\n"+wantAlertLog+"incidents ") {
		t.Fatalf("alert log in canonical:\n%swant:\n%s", canonical, wantAlertLog)
	}
	if len(incidents) != 2 {
		t.Fatalf("%d incidents, want 2", len(incidents))
	}
	// Bundle order is firing order: page first, breaker second.
	if incidents[0].Rule != "slo-burn" || incidents[1].Rule != "breaker-trip" {
		t.Fatalf("incident order = [%s %s], want [slo-burn breaker-trip]",
			incidents[0].Rule, incidents[1].Rule)
	}
	// The breaker bundle's 2ms lookback reaches back across the page:
	// its timeline must correlate the fault, the page, and the
	// autoscaler's first admission.
	breaker := incidents[1].Report
	for _, want := range []string{
		"fault fail rank1",
		"alert slo-burn pending->firing",
		"3600000000 action admit d2",
	} {
		if !strings.Contains(breaker, want) {
			t.Errorf("breaker bundle missing %q:\n%s", want, breaker)
		}
	}
	// Each bundle pins its trace slice with a digest.
	for i := range incidents {
		if b := rep.Artifact(fmt.Sprintf("bundle %d", i)); !strings.Contains(b, "trace_sha256 ") {
			t.Errorf("bundle %d has no trace digest:\n%s", i, b)
		}
	}
	t.Logf("incident soak: %v", rep.Counts)
}

func TestIncidentSoakReplaysFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("replay soak is the long half of the gate")
	}
	var ref Report
	runnertest.SameBytes(t, func(workers int) []byte {
		rep, _, err := RunIncidentSoak(7, workers)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = rep
		}
		return []byte(rep.String())
	})
	other, _, err := RunIncidentSoak(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if other.Artifact("canonical") == ref.Artifact("canonical") {
		t.Fatal("different seeds produced identical canonical reports")
	}
}
