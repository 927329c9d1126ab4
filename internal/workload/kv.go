package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/server"
)

// KVConfig shapes the KV-cache workload: a memcached/Redis-style GET/SET
// mix carried as TLS records, with zipfian key popularity and per-key
// value sizes drawn from a small class mix (the bimodal small-metadata /
// large-blob shape of production caches).
type KVConfig struct {
	// Keys is the key-space size. Zero selects 4096.
	Keys int
	// ZipfS is the popularity skew. Negative is rejected; zero means
	// uniform. The conventional cache-trace value is 0.99.
	ZipfS float64
	// ReadFrac is the GET fraction; the rest are SETs. Zero selects 0.9.
	ReadFrac float64
	Seed     int64
}

// valueClasses are the value-size classes and their mix, ascending by
// size: 128B (60%), 1KiB (30%), 4KiB (10%). Every key is assigned one
// class up front (a key's value size is a property of the key, not of
// the request).
var valueClasses = [...]struct {
	size   int
	weight float64
}{{128, 0.6}, {1024, 0.3}, {4096, 0.1}}

// ackBytes is the SET response size.
const ackBytes = 64

func (c *KVConfig) defaults() error {
	if c.Keys <= 0 {
		c.Keys = 4096
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.9
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		return fmt.Errorf("workload: kv read fraction %g outside [0,1]", c.ReadFrac)
	}
	return nil
}

// KV is the KV-cache request source; it implements server.WorkloadSource.
type KV struct {
	cfg     KVConfig
	zipf    *Zipf
	valSize []int // per-key value size, fixed at construction

	rngs map[int]*rand.Rand // per-connection; seeded from (Seed, connID)

	// Gets/Sets count issued requests; GetBytes/SetBytes the value bytes
	// they moved (response bodies for GETs, request bodies for SETs).
	Gets, Sets         uint64
	GetBytes, SetBytes uint64
}

// NewKV validates the config and assigns every key its value-size class
// from the seeded class mix.
func NewKV(cfg KVConfig) (*KV, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	z, err := NewZipf(cfg.Keys, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	k := &KV{cfg: cfg, zipf: z, rngs: make(map[int]*rand.Rand)}
	total := 0.0
	for _, c := range valueClasses {
		total += c.weight
	}
	sizeRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	k.valSize = make([]int, cfg.Keys)
	for i := range k.valSize {
		u := sizeRng.Float64() * total
		run := 0.0
		k.valSize[i] = valueClasses[len(valueClasses)-1].size
		for _, c := range valueClasses {
			if run += c.weight; u < run {
				k.valSize[i] = c.size
				break
			}
		}
	}
	return k, nil
}

// rng returns connection id's private generator, creating it on first
// use. Per-connection state is the determinism contract: connection c's
// request stream depends only on (Seed, c, submission count).
func (k *KV) rng(connID int) *rand.Rand {
	r, ok := k.rngs[connID]
	if !ok {
		r = rand.New(rand.NewSource(k.cfg.Seed + int64(connID)*0x9E3779B9 + 1))
		k.rngs[connID] = r
	}
	return r
}

// NextRequest implements server.WorkloadSource.
func (k *KV) NextRequest(connID int) server.RequestSpec {
	r := k.rng(connID)
	key := k.zipf.Sample(r.Float64())
	size := k.valSize[key]
	if r.Float64() < k.cfg.ReadFrac {
		k.Gets++
		k.GetBytes += uint64(size)
		return server.RequestSpec{Kind: "get", Payload: size}
	}
	k.Sets++
	k.SetBytes += uint64(size)
	return server.RequestSpec{Kind: "set", Payload: size, Store: true, Ack: ackBytes}
}

// MaxPayload is the largest value the source can return — the server's
// MsgSize must cover it.
func (k *KV) MaxPayload() int { return valueClasses[len(valueClasses)-1].size }
