package main

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/aesgcm"
	"repro/internal/corpus"
	"repro/internal/cuckoo"
	"repro/internal/deflate"
	"repro/internal/sim"
)

// micro is one fixed-input loop over a leaf layer's public function.
type micro struct {
	name   string
	unit   string  // "ns" or "us" per operation
	perOp  float64 // median time per operation, in unit
	allocs float64 // heap allocations per operation
}

// microBudget is how long each loop is timed.
const microBudget = 200 * time.Millisecond

// sinks keep the compiler from discarding the loops' results.
var (
	sinkEl    aesgcm.FieldEl
	sinkBytes []byte
	sinkAny   any
)

// runMicros times the leaf layers the workloads spend their host time in,
// on inputs generated from seed.
func runMicros(seed int64) ([]micro, error) {
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var out []micro
	add := func(name, unit string, n int, prepare func(), op func(i int)) {
		ns, allocs := timeLoop(n, prepare, op)
		if unit == "us" {
			ns /= 1e3
		}
		out = append(out, micro{name: name, unit: unit, perOp: ns, allocs: allocs})
	}

	// aesgcm: the per-record setup the SmartDIMM TLS path performs, the
	// DSA's per-cacheline work, and the bit-serial GF(2^128) multiply.
	key := corpus.Generate(corpus.Random, 16, seed)
	iv := corpus.Generate(corpus.Random, aesgcm.StandardIVSize, seed+1)
	plain := corpus.Generate(corpus.Text, 4096, seed)
	aad := []byte{0x17, 0x03, 0x03, 0x10, 0x10} // header of a 4 KiB record
	g, err := aesgcm.NewGCM(key)
	if err != nil {
		return nil, err
	}
	eiv, err := g.EIV(iv)
	if err != nil {
		return nil, err
	}
	rc := aesgcm.RecordConfig{Key: key, IV: iv, H: g.H(), EIV: eiv, AAD: aad, Length: len(plain)}
	add("aesgcm.record_setup", "us", 64, nil, func(int) {
		g, err := aesgcm.NewGCM(key)
		check(err)
		eiv, err := g.EIV(iv)
		check(err)
		e, err := aesgcm.NewCachelineEngine(aesgcm.Encrypt, aesgcm.RecordConfig{
			Key: key, IV: iv, H: g.H(), EIV: eiv, AAD: aad, Length: len(plain)})
		check(err)
		sinkAny = e
	})
	var eng *aesgcm.CachelineEngine
	dst := make([]byte, aesgcm.CachelineSize)
	add("aesgcm.cacheline", "ns", len(plain)/aesgcm.CachelineSize, func() {
		eng, err = aesgcm.NewCachelineEngine(aesgcm.Encrypt, rc)
		check(err)
	}, func(i int) {
		off := i * aesgcm.CachelineSize
		check(eng.ProcessCacheline(dst, plain[off:off+aesgcm.CachelineSize], off))
	})
	h := aesgcm.LoadEl(g.H())
	acc := aesgcm.LoadEl(eiv)
	add("aesgcm.mul", "ns", 4096, nil, func(int) { acc = acc.Mul(h) })
	sinkEl = acc

	// deflate: the DSA's encoder and the inflater on one 4 KiB HTML page.
	page := corpus.Generate(corpus.HTML, 4096, seed)
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	add("deflate.hw_compress_4k", "us", 16, nil, func(int) { sinkBytes = enc.Compress(page) })
	stream := enc.Compress(page)
	got, err := deflate.Decompress(stream)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, page) {
		return nil, errors.New("deflate: decompressed page differs from the input")
	}
	add("deflate.decompress_4k", "us", 16, nil, func(int) {
		sinkBytes, err = deflate.Decompress(stream)
		check(err)
	})

	// memsys: cached 64-byte accesses sweeping a working set twice the
	// LLC, so most of them reach the memory controller and DRAM.
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 2 << 20, LLCWays: 8, Geometry: benchGeometry,
	})
	if err != nil {
		return nil, err
	}
	const span = 4 << 20
	base, err := sys.AllocPlain(span)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 64)
	lines := span / len(line)
	add("memsys.read64", "ns", lines, nil, func(i int) {
		_, err := sys.Hier.Read64(0, base+uint64(i*len(line)), line)
		check(err)
	})
	add("memsys.write64", "ns", lines, nil, func(i int) {
		_, err := sys.Hier.Write64(0, base+uint64(i*len(line)), line)
		check(err)
	})

	// cuckoo: the device's translation table at the paper's geometry,
	// filled to half its capacity.
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, cuckoo.NewPaperConfig[uint64]().Capacity()/2)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var tt *cuckoo.Table[uint64]
	add("cuckoo.insert", "ns", len(keys), func() { tt = cuckoo.NewPaperConfig[uint64]() }, func(i int) {
		check(tt.Insert(keys[i], uint64(i)))
	})
	// Lookups run on the table the last insert batch filled.
	add("cuckoo.lookup", "ns", len(keys), nil, func(i int) {
		v, ok := tt.Lookup(keys[i])
		if !ok || v != uint64(i) {
			check(errors.New("cuckoo lookup missed an inserted key"))
		}
	})

	// sim: one event scheduled and run with an empty callback.
	se := sim.NewEngine()
	noop := func() {}
	add("sim.event", "ns", 4096, nil, func(int) {
		se.At(se.Now()+1, noop)
		se.Step()
	})
	return out, firstErr
}

// timeLoop runs op(0..n-1) in timed batches for about microBudget, calling
// prepare untimed before each batch. It returns the median batch's ns per
// operation and the heap allocations per operation of one more batch.
func timeLoop(n int, prepare func(), op func(i int)) (nsPerOp, allocsPerOp float64) {
	if prepare == nil {
		prepare = func() {}
	}
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < microBudget {
		prepare()
		t := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	var m0, m1 runtime.MemStats
	prepare()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
