// Package cuckoo implements the d-ary cuckoo hash table SmartDIMM uses as
// its Translation Table (§IV-C of the paper), together with the 8-entry
// CAM staging array that absorbs insertions so displacement chains run
// off the critical path.
//
// The paper's configuration is a 3-ary table sized 3x over the required
// entries (12K entries for 4K translations), which keeps occupancy below
// 33% where insertion almost always succeeds on the first attempt or with
// a single displacement. The implementation exposes displacement and
// failure statistics so the reproduction can verify that claim
// (BenchmarkCuckooOccupancy).
package cuckoo

import (
	"errors"
	"fmt"
)

// ErrFull is returned when an insertion cannot be placed even after the
// displacement budget is exhausted and the CAM staging array is full.
// At the paper's <33% occupancy this is effectively unreachable.
var ErrFull = errors.New("cuckoo: table full (displacement budget and CAM exhausted)")

// ways is the arity of SmartDIMM's Translation Table (§IV-C).
const ways = 3

// camEntries is the size of the staging CAM in the paper (§IV-C).
const camEntries = 8

// maxDisplacements bounds a single insertion's displacement chain. The
// hardware performs these one per cycle off the critical path; 32 is far
// beyond what <50% occupancy ever needs.
const maxDisplacements = 32

// Stats captures the behaviour the paper argues about experimentally.
type Stats struct {
	Inserts         uint64 // successful insertions (table or CAM)
	FirstTryInserts uint64 // placed without displacing anyone
	Displacements   uint64 // total entries moved during insertions
	CAMStaged       uint64 // insertions that parked in the CAM first
	CAMDrains       uint64 // CAM entries later moved into the table
	FailedInserts   uint64 // insertions that returned ErrFull
	Lookups         uint64
	Hits            uint64
	Deletes         uint64
}

// slot is one bucket cell.
type slot[V any] struct {
	key   uint64
	value V
	used  bool
}

// Table is a 3-ary cuckoo hash table with an 8-entry CAM for overflow
// staging. Keys are uint64 (SmartDIMM keys translations by physical page
// number). The zero value is not usable; construct with New.
type Table[V any] struct {
	perWay int // buckets per way
	slots  [ways][]slot[V]
	// cam's first camLen entries have held staged entries; a freed one
	// is reused only once all camEntries have been taken.
	cam       [camEntries]slot[V]
	camLen    int
	occupancy int
	stats     Stats
}

// New constructs a table with the given total capacity, rounded up to a
// multiple of the arity.
func New[V any](capacity int) *Table[V] {
	perWay := max((capacity+ways-1)/ways, 1)
	t := &Table[V]{perWay: perWay}
	for w := range t.slots {
		t.slots[w] = make([]slot[V], perWay)
	}
	return t
}

// NewPaperConfig constructs the Translation Table exactly as the paper
// configures it: 12288 entries (3x the 4096 required translations).
func NewPaperConfig[V any]() *Table[V] {
	return New[V](12288)
}

// mix is a 64-bit finalizer (splitmix64) applied per way with a
// way-specific seed, standing in for the hardware's three hash circuits.
func mix(key, seed uint64) uint64 {
	z := key + seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bucket hashes key into one of way's buckets. Distinct odd multipliers
// give the distinct hash functions the paper requires for each way.
func (t *Table[V]) bucket(way int, key uint64) int {
	return int(mix(key, 0x9e3779b97f4a7c15+uint64(way)*0xbf58476d1ce4e5b9) % uint64(t.perWay))
}

// Len returns the number of stored entries, including CAM residents.
func (t *Table[V]) Len() int { return t.occupancy }

// Capacity returns the total table capacity excluding the CAM.
func (t *Table[V]) Capacity() int { return ways * t.perWay }

// Occupancy returns the load factor of the main table (0..1), excluding
// CAM residents.
func (t *Table[V]) Occupancy() float64 {
	inCAM := 0
	for i := range t.camLen {
		if t.cam[i].used {
			inCAM++
		}
	}
	return float64(t.occupancy-inCAM) / float64(t.Capacity())
}

// Stats returns a copy of the accumulated statistics.
func (t *Table[V]) Stats() Stats { return t.stats }

// Lookup returns the value stored for key. The CAM is probed in the same
// cycle as the table ways, as in the hardware.
func (t *Table[V]) Lookup(key uint64) (V, bool) {
	t.stats.Lookups++
	for i := range t.camLen {
		if t.cam[i].used && t.cam[i].key == key {
			t.stats.Hits++
			return t.cam[i].value, true
		}
	}
	for w := range ways {
		s := &t.slots[w][t.bucket(w, key)]
		if s.used && s.key == key {
			t.stats.Hits++
			return s.value, true
		}
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (t *Table[V]) Contains(key uint64) bool {
	_, ok := t.Lookup(key)
	return ok
}

// Insert stores value under key, replacing any existing entry for the
// same key. If no way has a free bucket, it first parks the entry in the
// CAM (constant-time, as the hardware does) and then attempts to drain by
// running the displacement chain off the critical path. ErrFull is
// returned only when both the displacement budget and the CAM are
// exhausted.
func (t *Table[V]) Insert(key uint64, value V) error {
	// Update in place if present (table or CAM).
	for i := range t.camLen {
		if t.cam[i].used && t.cam[i].key == key {
			t.cam[i].value = value
			return nil
		}
	}
	for w := range ways {
		s := &t.slots[w][t.bucket(w, key)]
		if s.used && s.key == key {
			s.value = value
			return nil
		}
	}

	// Fast path: any empty candidate bucket.
	for w := range ways {
		s := &t.slots[w][t.bucket(w, key)]
		if !s.used {
			*s = slot[V]{key: key, value: value, used: true}
			t.occupancy++
			t.stats.Inserts++
			t.stats.FirstTryInserts++
			return nil
		}
	}

	// Park in the CAM and drain via displacements.
	if t.camLen < camEntries {
		t.cam[t.camLen] = slot[V]{key: key, value: value, used: true}
		t.camLen++
	} else {
		placed := false
		for i := range t.camLen {
			if !t.cam[i].used {
				t.cam[i] = slot[V]{key: key, value: value, used: true}
				placed = true
				break
			}
		}
		if !placed {
			t.stats.FailedInserts++
			return ErrFull
		}
	}
	t.occupancy++
	t.stats.Inserts++
	t.stats.CAMStaged++
	t.drainCAM()
	return nil
}

// drainCAM tries to move CAM residents into the main table using bounded
// displacement chains. Failure to drain leaves the entry in the CAM; it
// remains fully visible to lookups.
func (t *Table[V]) drainCAM() {
	for i := range t.camLen {
		if !t.cam[i].used {
			continue
		}
		if t.placeWithDisplacement(t.cam[i].key, t.cam[i].value) {
			t.cam[i].used = false
			t.stats.CAMDrains++
		}
	}
}

// placeWithDisplacement runs a cuckoo displacement chain for (key, value).
// It returns false if the chain exceeds the displacement budget; in that
// case the table is left as it was before the call (the chain is rolled
// forward only on success by operating on copies until commit).
func (t *Table[V]) placeWithDisplacement(key uint64, value V) bool {
	type move struct {
		way, idx int
		old      slot[V]
	}
	curKey, curVal := key, value
	var trail []move
	way := 0
	for d := 0; d <= maxDisplacements; d++ {
		// Try all ways for an empty bucket first.
		for w := range ways {
			idx := t.bucket(w, curKey)
			if !t.slots[w][idx].used {
				t.slots[w][idx] = slot[V]{key: curKey, value: curVal, used: true}
				t.stats.Displacements += uint64(len(trail))
				return true
			}
		}
		if d == maxDisplacements {
			break
		}
		// Evict from a rotating way to avoid ping-pong between two cells.
		idx := t.bucket(way, curKey)
		victim := t.slots[way][idx]
		trail = append(trail, move{way: way, idx: idx, old: victim})
		t.slots[way][idx] = slot[V]{key: curKey, value: curVal, used: true}
		curKey, curVal = victim.key, victim.value
		way = (way + 1) % ways
	}
	// Roll back so the displaced chain does not lose entries.
	for i := len(trail) - 1; i >= 0; i-- {
		m := trail[i]
		t.slots[m.way][m.idx] = m.old
	}
	return false
}

// Delete removes key, returning whether it was present.
func (t *Table[V]) Delete(key uint64) bool {
	for i := range t.camLen {
		if t.cam[i].used && t.cam[i].key == key {
			t.cam[i].used = false
			t.occupancy--
			t.stats.Deletes++
			return true
		}
	}
	for w := range ways {
		s := &t.slots[w][t.bucket(w, key)]
		if s.used && s.key == key {
			s.used = false
			t.occupancy--
			t.stats.Deletes++
			return true
		}
	}
	return false
}

// reset empties the table, keeping configuration and zeroing statistics.
func (t *Table[V]) reset() {
	for w := range t.slots {
		for i := range t.slots[w] {
			t.slots[w][i].used = false
		}
	}
	t.cam, t.camLen = [camEntries]slot[V]{}, 0
	t.occupancy = 0
	t.stats = Stats{}
}

// String summarizes the table state.
func (t *Table[V]) String() string {
	return fmt.Sprintf("cuckoo(%d-ary, cap=%d, len=%d, occ=%.1f%%)",
		ways, t.Capacity(), t.Len(), t.Occupancy()*100)
}
