package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// refLine is one line of the reference model.
type refLine struct {
	way     int
	data    [LineSize]byte
	dirty   bool
	lastUse uint64
}

// refCache is a naive model of Cache: a map from line address to line
// for lookups, and a (set, way) -> address map for replacement, which
// picks the first empty allowed way, else the least recently used
// allowed way, else way 0 when the class mask allows none.
type refCache struct {
	ways, sets int
	mask       [numClasses]uint64
	lines      map[uint64]*refLine
	occupant   map[[2]int]uint64
	tick       uint64
	stats      Stats
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		ways:     cfg.Ways,
		sets:     cfg.SizeBytes / (cfg.Ways * LineSize),
		mask:     cfg.WayMask,
		lines:    map[uint64]*refLine{},
		occupant: map[[2]int]uint64{},
	}
}

func (r *refCache) set(addr uint64) int { return int(addr/LineSize) % r.sets }

func (r *refCache) access(addr uint64, class Class) *refLine {
	r.tick++
	r.stats.Accesses[class]++
	l := r.lines[addr]
	if l == nil {
		r.stats.Misses[class]++
		return nil
	}
	l.lastUse = r.tick
	return l
}

func (r *refCache) fill(addr uint64, class Class, data []byte, dirty bool) (Victim, bool) {
	r.tick++
	r.stats.Fills++
	if l := r.lines[addr]; l != nil {
		copy(l.data[:], data)
		l.dirty = l.dirty || dirty
		l.lastUse = r.tick
		return Victim{}, false
	}
	s := r.set(addr)
	mask := r.mask[class]
	if mask == 0 {
		mask = ^uint64(0)
	}
	way := -1
	for w := 0; w < r.ways; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		old, ok := r.occupant[[2]int{s, w}]
		if !ok {
			way = w
			break
		}
		if way == -1 || r.lines[old].lastUse < r.lines[r.occupant[[2]int{s, way}]].lastUse {
			way = w
		}
	}
	if way == -1 {
		way = 0
	}
	var v Victim
	old, evict := r.occupant[[2]int{s, way}]
	if evict {
		ol := r.lines[old]
		v = Victim{Addr: old, Dirty: ol.dirty}
		if v.Dirty {
			v.Data = ol.data
			r.stats.Writebacks++
		}
		delete(r.lines, old)
	}
	l := &refLine{way: way, dirty: dirty, lastUse: r.tick}
	copy(l.data[:], data)
	r.lines[addr] = l
	r.occupant[[2]int{s, way}] = addr
	return v, evict
}

func (r *refCache) flush(addr uint64) (Victim, bool) {
	l := r.lines[addr]
	if l == nil {
		return Victim{}, false
	}
	v := Victim{Addr: addr, Dirty: l.dirty}
	if v.Dirty {
		v.Data = l.data
		r.stats.Writebacks++
	}
	delete(r.lines, addr)
	delete(r.occupant, [2]int{r.set(addr), l.way})
	return v, true
}

// TestCacheMatchesReferenceModel drives random Read/Write/Fill/
// FillDirty/flush/FlushRange sequences, with a DDIO-style 2-way DMA
// mask and occasional CAT mask changes, through Cache and the model:
// hits, victims (address, dirty bit, a dirty victim's data) and Stats
// must agree. It also drives the known-miss fill in the orders memsys
// uses: a Read miss, then FillMissed clean, and a Write miss, then
// FillMissed dirty.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{SizeBytes: 8 * 4 * LineSize, Ways: 4, WayMask: [numClasses]uint64{ClassDMA: 0b11}}
		if seed%2 == 0 {
			cfg = Config{SizeBytes: 4 * 8 * LineSize, Ways: 8, WayMask: [numClasses]uint64{ClassDMA: 0b11}}
		}
		c, ref := mustNew(cfg), newRefCache(cfg)
		// 3x the cache's lines, so sets overflow and evict.
		nAddrs := 3 * cfg.SizeBytes / LineSize
		addr := func() uint64 { return uint64(rng.Intn(nAddrs))*LineSize + 1<<30 }
		buf := make([]byte, LineSize)
		for op := 0; op < 4000; op++ {
			a := addr()
			class := Class(rng.Intn(int(numClasses)))
			data := bytes.Repeat([]byte{byte(op)}, LineSize)
			switch k := rng.Intn(22); {
			case k < 6:
				got := c.Read(a, class, buf)
				l := ref.access(a, class)
				if got != (l != nil) || (got && !bytes.Equal(buf, l.data[:])) {
					t.Fatalf("seed %d op %d: Read(%#x) hit=%v, model %v", seed, op, a, got, l != nil)
				}
			case k < 10:
				got := c.Write(a, class, data)
				l := ref.access(a, class)
				if l != nil {
					l.dirty = true
					copy(l.data[:], data)
				}
				if got != (l != nil) {
					t.Fatalf("seed %d op %d: Write(%#x) hit=%v, model %v", seed, op, a, got, l != nil)
				}
			case k < 17:
				dirty := k >= 14
				var v *Victim
				if dirty {
					v = c.FillDirty(a, class, data)
				} else {
					v = c.Fill(a, class, data)
				}
				wv, wok := ref.fill(a, class, data, dirty)
				if !victimIs(v, wv, wok) {
					t.Fatalf("seed %d op %d: fill(%#x) victim %+v, model %v/%+v", seed, op, a, v, wok, wv.Addr)
				}
			case k < 18:
				v := c.flush(a)
				wv, wok := ref.flush(a)
				if !victimIs(v, wv, wok) {
					t.Fatalf("seed %d op %d: flush(%#x) %v, model %v", seed, op, a, v != nil, wok)
				}
			case k < 19:
				from, size := a+uint64(rng.Intn(LineSize)), 1+rng.Intn(4*LineSize)
				var got, want []Victim
				present := c.FlushRange(from, size, func(v *Victim) { got = append(got, *v) })
				wantPresent := 0
				for x := from &^ (LineSize - 1); x < from+uint64(size); x += LineSize {
					if v, ok := ref.flush(x); ok {
						wantPresent++
						if v.Dirty {
							want = append(want, v)
						}
					}
				}
				if present != wantPresent || len(got) != len(want) {
					t.Fatalf("seed %d op %d: FlushRange present %d/%d writebacks, model %d/%d", seed, op, present, len(got), wantPresent, len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: FlushRange writeback %d differs", seed, op, i)
					}
				}
			case k < 21:
				write := k == 20
				var hit bool
				if write {
					hit = c.Write(a, class, data)
				} else {
					hit = c.Read(a, class, buf)
				}
				l := ref.access(a, class)
				if l != nil && write {
					l.dirty = true
					copy(l.data[:], data)
				}
				if hit != (l != nil) || (hit && !write && !bytes.Equal(buf, l.data[:])) {
					t.Fatalf("seed %d op %d: access(%#x, write %v) hit=%v, model %v", seed, op, a, write, hit, l != nil)
				}
				if !hit {
					v := c.FillMissed(a, class, data, write)
					wv, wok := ref.fill(a, class, data, write)
					if !victimIs(v, wv, wok) {
						t.Fatalf("seed %d op %d: FillMissed(%#x) victim %+v, model %v/%+v", seed, op, a, v, wok, wv.Addr)
					}
				}
			default:
				m := uint64(rng.Intn(1 << uint(cfg.Ways+1)))
				c.cfg.WayMask[class] = m
				ref.mask[class] = m
			}
			if c.Stats() != ref.stats {
				t.Fatalf("seed %d op %d: stats %+v, model %+v", seed, op, c.Stats(), ref.stats)
			}
		}
	}
}

// victimIs reports whether v, the cache's victim or nil, is the
// model's victim (want, ok): the same address and dirty bit, and for a
// dirty victim the same data.
func victimIs(v *Victim, want Victim, ok bool) bool {
	if v == nil || !ok {
		return v == nil && !ok
	}
	return v.Addr == want.Addr && v.Dirty == want.Dirty && (!v.Dirty || v.Data == want.Data)
}

// TestFillFlushAllocs pins the cache-owned victims: evicting fills,
// known-miss fills after a Read or Write miss, and flushes allocate
// nothing.
func TestFillFlushAllocs(t *testing.T) {
	c := tiny()
	data := lineData(7)
	var n uint64
	fill := testing.AllocsPerRun(100, func() {
		n++
		// Same-set stride 128 cycles through 8 lines over 4 ways.
		if v := c.FillDirty((n%8)*128, ClassCPU, data); v != nil && !v.Dirty {
			t.Fatal("dirty victim came back clean")
		}
	})
	buf := make([]byte, LineSize)
	missed := testing.AllocsPerRun(100, func() {
		n++
		if a := (n % 8) * 128; !c.Read(a, ClassCPU, buf) {
			c.FillMissed(a, ClassCPU, buf, false)
		}
		if a := (n%8)*128 + 64; !c.Write(a, ClassCPU, data) {
			c.FillMissed(a, ClassCPU, data, true)
		}
	})
	flush := testing.AllocsPerRun(100, func() {
		n++
		c.Fill((n%8)*128, ClassCPU, data)
		c.flush((n % 8) * 128)
		c.FlushRange(0, 512, nil)
	})
	if fill != 0 || missed != 0 || flush != 0 {
		t.Fatalf("allocs/op: fill %v, known-miss fill %v, flush %v; want 0", fill, missed, flush)
	}
}
