package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// traceOp is one access of a replayed trace: a demand read or store of
// a line, or a clflush of it.
type traceOp struct {
	addr  uint64
	write bool
	flush bool
}

// serverTrace records one access trace shaped like a server's LLC
// traffic: page-sized buffers streamed in order, a Zipf-skewed hot set,
// and uniform random lines, with a fifth of the accesses stores and an
// occasional clflush of a buffer line.
func serverTrace() []traceOp {
	rng := rand.New(rand.NewSource(31))
	zipf := rand.NewZipf(rng, 1.2, 1, 4095)
	var tr []traceOp
	for len(tr) < 40000 {
		switch k := rng.Intn(10); {
		case k < 3: // stream one 4 KB buffer
			page := uint64(rng.Intn(64)) << 12
			for off := uint64(0); off < 4096; off += LineSize {
				tr = append(tr, traceOp{addr: page + off, write: k == 0})
			}
		case k < 8:
			tr = append(tr, traceOp{addr: 1<<24 + zipf.Uint64()*LineSize, write: rng.Intn(5) == 0})
		case k < 9:
			tr = append(tr, traceOp{addr: 1<<26 + uint64(rng.Intn(1<<16))*LineSize})
		default:
			tr = append(tr, traceOp{addr: uint64(rng.Intn(64)<<12 + rng.Intn(64)*LineSize), flush: true})
		}
	}
	return tr
}

// replay replays tr as class on a cache of cfg the way memsys drives
// it (a read miss fills clean, a store miss fills dirty) and returns
// which accesses hit.
func replay(t *testing.T, cfg Config, class Class, tr []traceOp) []bool {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]bool, len(tr))
	line := make([]byte, LineSize)
	for i, op := range tr {
		switch {
		case op.flush:
			c.FlushRange(op.addr, LineSize, nil)
		case op.write:
			if hits[i] = c.Write(op.addr, class, line); !hits[i] {
				c.FillDirty(op.addr, class, line)
			}
		default:
			if hits[i] = c.Read(op.addr, class, line); !hits[i] {
				c.Fill(op.addr, class, line)
			}
		}
	}
	return hits
}

// checkIncluded fails unless every access that hits in the smaller
// cache also hits in the larger one, which is what keeps the larger
// cache's misses from exceeding the smaller's.
func checkIncluded(t *testing.T, tr []traceOp, small, large []bool, what string) {
	t.Helper()
	for i := range tr {
		if small[i] && !large[i] {
			t.Errorf("%s: access %d (%#x) hits in the smaller cache but misses in the larger", what, i, tr[i].addr)
			return
		}
	}
}

// TestLRUInclusion checks the stack property of true LRU on one
// replayed trace: at a fixed set count, a set with more ways holds every
// line a smaller one holds, so adding ways never turns a hit into a
// miss; and a CAT mask that allows a superset of another's ways never
// does either.
func TestLRUInclusion(t *testing.T) {
	tr := serverTrace()
	const sets = 64
	var prev []bool
	for ways := 1; ways <= 16; ways++ {
		hits := replay(t, Config{SizeBytes: sets * ways * LineSize, Ways: ways}, ClassCPU, tr)
		if prev != nil {
			checkIncluded(t, tr, prev, hits, fmt.Sprintf("%d ways at %d sets", ways, sets))
		}
		prev = hits
	}
	if !slices.Contains(prev, false) || !slices.Contains(prev, true) {
		t.Fatal("trace all hits or all misses at 16 ways; the relation is vacuous")
	}

	// Each chain grows a mask of a 16-way cache one way at a time, once
	// contiguously and once scattered, for a CPU-only and a DMA-only
	// replay.
	for _, class := range []Class{ClassCPU, ClassDMA} {
		for _, chain := range [][]int{
			{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			{7, 0, 13, 2, 9, 15, 4, 11, 1, 6, 14, 3, 10, 5, 12, 8},
		} {
			var mask uint64
			var prev []bool
			for _, w := range chain {
				mask |= 1 << uint(w)
				cfg := Config{SizeBytes: sets * 16 * LineSize, Ways: 16}
				cfg.WayMask[class] = mask
				hits := replay(t, cfg, class, tr)
				if prev != nil {
					checkIncluded(t, tr, prev, hits, fmt.Sprintf("%v mask %#x", class, mask))
				}
				prev = hits
			}
		}
	}
}
