// Package workload is the production workload suite: request sources
// that shape what each connection asks the server for — the KV-cache
// ULP (GET/SET records with zipfian keys and mixed value sizes) and the
// RecSys embedding-gather ULP (multi-table batched gathers with
// pooling) — plus the end-to-end Run harness that replays open-loop
// trace traffic through a SmartDIMM fleet under the SLO autoscaler.
//
// Sources implement server.WorkloadSource. All randomness lives in
// per-connection generator state seeded from (Seed, connID), so a
// source's request stream for connection c is a pure function of the
// config and c's submission count — reordering other connections never
// perturbs it, which is what keeps whole-run reports byte-identical at
// any worker count.
package workload

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples {0..n-1} with P(k) proportional to 1/(k+1)^s by inverting the
// cumulative distribution: a single binary search per sample over a
// precomputed table, driven by a caller-supplied uniform variate. Keeping
// the RNG out of the sampler is deliberate — per-connection determinism
// needs the caller to own every bit of random state.
type Zipf struct {
	cum []float64 // cum[k] = P(key <= k), cum[n-1] == 1
}

// NewZipf builds the inverse-CDF table for n keys at skew s (s=0 is
// uniform; web cache traces run s in [0.9, 1.1]).
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf needs keys, have %d", n)
	}
	if s < 0 {
		return nil, fmt.Errorf("workload: negative zipf skew %g", s)
	}
	z := &Zipf{cum: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
	}
	run := 0.0
	for k := 0; k < n; k++ {
		run += math.Pow(float64(k+1), -s) / total
		z.cum[k] = run
	}
	z.cum[n-1] = 1 // absorb rounding
	return z, nil
}

// Sample maps a uniform variate u in [0,1) to a key.
func (z *Zipf) Sample(u float64) int {
	return sort.SearchFloat64s(z.cum, u)
}
