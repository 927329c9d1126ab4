// Package corun models the cache-intensive co-runner of the paper's
// performance-isolation experiment (§VII-C): SPEC CPU2017 505.mcf, whose
// role in the evaluation is to thrash the shared LLC at a calibrated
// intensity while its own progress is measured. The model is a
// pointer-chasing antagonist: batches of dependent reads over a working
// set far larger than the LLC, interleaved on the shared memory system
// through the discrete-event engine.
package corun

import (
	"math/rand"

	"repro/internal/sim"
)

// Config tunes one antagonist instance.
type Config struct {
	Sys *sim.System
	// Instances is how many copies run (the paper co-runs 10 mcf
	// instances on 10 cores).
	Instances int
	// WorkingSetBytes per instance; mcf's resident set is ~350MB on the
	// testbed, scaled here to dominate the modelled LLC.
	WorkingSetBytes int
}

// The antagonist's fixed pointer-chasing shape.
const (
	// batchReads is the number of dependent loads per scheduling quantum.
	batchReads = 64
	// computeNsPerRead is the non-memory work between loads (mcf is
	// memory-bound: small).
	computeNsPerRead = 4
	// seed seeds instance i's address stream with seed+i.
	seed = 7
)

// DefaultConfig sizes the antagonist against the given system.
func DefaultConfig(sys *sim.System) Config {
	return Config{Sys: sys, Instances: 10, WorkingSetBytes: 4 << 20}
}

// Antagonist is the running co-runner set.
type Antagonist struct {
	cfg   Config
	eng   *sim.Engine
	bases []uint64
	rngs  []*rand.Rand

	measuring bool
	ops       uint64
	fromPs    int64
}

// Start allocates working sets and schedules the instances on the
// engine. It must be called before the engine runs.
func Start(eng *sim.Engine, cfg Config) (*Antagonist, error) {
	if cfg.Instances <= 0 {
		cfg.Instances = 1
	}
	if cfg.WorkingSetBytes <= 0 {
		cfg.WorkingSetBytes = 4 << 20
	}
	a := &Antagonist{cfg: cfg, eng: eng}
	for i := 0; i < cfg.Instances; i++ {
		base, err := cfg.Sys.AllocPlain(cfg.WorkingSetBytes)
		if err != nil {
			return nil, err
		}
		a.bases = append(a.bases, base)
		a.rngs = append(a.rngs, rand.New(rand.NewSource(seed+int64(i))))
		inst := i
		eng.At(eng.Now(), func() { a.batch(inst) })
	}
	return a, nil
}

// batch executes one quantum of dependent loads and reschedules itself.
func (a *Antagonist) batch(inst int) {
	var line [64]byte
	var wall int64
	rng := a.rngs[inst]
	lines := uint64(a.cfg.WorkingSetBytes / 64)
	for r := 0; r < batchReads; r++ {
		addr := a.bases[inst] + (rng.Uint64()%lines)*64
		lat, err := a.cfg.Sys.Hier.Read64(10+inst, addr, line[:])
		if err != nil {
			return // working set unmapped: stop this instance
		}
		wall += lat + computeNsPerRead*sim.Ns
	}
	if a.measuring {
		a.ops += batchReads
	}
	a.eng.After(wall, func() { a.batch(inst) })
}

// BeginMeasurement zeroes progress counters (after warmup).
func (a *Antagonist) BeginMeasurement() {
	a.measuring = true
	a.ops = 0
	a.fromPs = a.eng.Now()
}

// OpsPerSecond returns measured progress across all instances.
func (a *Antagonist) OpsPerSecond() float64 {
	elapsed := a.eng.Now() - a.fromPs
	if elapsed <= 0 {
		return 0
	}
	return float64(a.ops) / (float64(elapsed) * 1e-12)
}
