package cuckoo

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	tbl := New[string](64)
	if err := tbl.Insert(42, "hello"); err != nil {
		t.Fatal(err)
	}
	v, ok := tbl.Lookup(42)
	if !ok || v != "hello" {
		t.Fatalf("lookup = %q,%v", v, ok)
	}
	if _, ok := tbl.Lookup(43); ok {
		t.Fatal("lookup of absent key succeeded")
	}
	if !tbl.Contains(42) || tbl.Contains(43) {
		t.Fatal("Contains wrong")
	}
}

func TestInsertReplacesExisting(t *testing.T) {
	tbl := New[int](64)
	tbl.Insert(7, 1)
	tbl.Insert(7, 2)
	if tbl.Len() != 1 {
		t.Fatalf("len = %d, want 1 (replace, not duplicate)", tbl.Len())
	}
	if v, _ := tbl.Lookup(7); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestDelete(t *testing.T) {
	tbl := New[int](64)
	tbl.Insert(1, 10)
	tbl.Insert(2, 20)
	if !tbl.Delete(1) {
		t.Fatal("delete of present key failed")
	}
	if tbl.Delete(1) {
		t.Fatal("double delete succeeded")
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d after delete, want 1", tbl.Len())
	}
	if _, ok := tbl.Lookup(1); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tbl.Lookup(2); !ok || v != 20 {
		t.Fatal("unrelated key damaged by delete")
	}
}

func TestPaperConfigDimensions(t *testing.T) {
	tbl := NewPaperConfig[uint64]()
	if tbl.Capacity() != 12288 {
		t.Fatalf("capacity = %d, want 12288", tbl.Capacity())
	}
	// Insert the full working set of the paper: 4096 translations
	// (2048 scratchpad + 2048 config memory pages). Occupancy stays
	// at 33% and nothing may fail.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		if err := tbl.Insert(rng.Uint64(), uint64(i)); err != nil {
			t.Fatalf("insert %d failed: %v", i, err)
		}
	}
	if occ := tbl.Occupancy(); occ > 0.34 {
		t.Fatalf("occupancy = %.3f, want <= 0.34", occ)
	}
	st := tbl.Stats()
	if st.FailedInserts != 0 {
		t.Fatalf("failed inserts = %d, want 0 at paper occupancy", st.FailedInserts)
	}
	// Paper claim: at <50% occupancy insertion typically succeeds on the
	// first attempt or with a single displacement. Verify nearly all
	// inserts were first-try and the mean displacement count is tiny.
	firstTry := float64(st.FirstTryInserts) / float64(st.Inserts)
	if firstTry < 0.90 {
		t.Fatalf("first-try rate = %.3f, want >= 0.90", firstTry)
	}
	if mean := float64(st.Displacements) / float64(st.Inserts); mean > 0.25 {
		t.Fatalf("mean displacements/insert = %.3f, want <= 0.25", mean)
	}
}

func TestAllInsertedKeysFound(t *testing.T) {
	tbl := New[uint64](1024)
	rng := rand.New(rand.NewSource(2))
	keys := make(map[uint64]uint64)
	for i := 0; i < 500; i++ { // ~49% occupancy
		k := rng.Uint64()
		keys[k] = uint64(i)
		if err := tbl.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert failed at %d: %v", i, err)
		}
	}
	for k, want := range keys {
		got, ok := tbl.Lookup(k)
		if !ok || got != want {
			t.Fatalf("key %#x: got %d,%v want %d", k, got, ok, want)
		}
	}
}

func TestHighOccupancyUsesCAMOrFails(t *testing.T) {
	// A tiny table force-fed far beyond capacity must either stage in the
	// CAM or report ErrFull — never lose an acknowledged entry.
	tbl := New[int](12)
	if len(tbl.slots) != 3 || tbl.Capacity() != 12 {
		t.Fatalf("%d ways of %d buckets, want 3 ways of 4", len(tbl.slots), tbl.perWay)
	}
	rng := rand.New(rand.NewSource(3))
	accepted := map[uint64]int{}
	for i := 0; i < 64; i++ {
		k := rng.Uint64()
		if err := tbl.Insert(k, i); err == nil {
			accepted[k] = i
			continue
		}
		staged := 0
		for _, s := range tbl.cam[:tbl.camLen] {
			if s.used {
				staged++
			}
		}
		if staged != 8 {
			t.Fatalf("ErrFull with %d entries in the CAM, want the paper's 8", staged)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("nothing accepted")
	}
	if tbl.Stats().FailedInserts == 0 {
		t.Fatal("expected some failures when 5x oversubscribed")
	}
	for k, want := range accepted {
		got, ok := tbl.Lookup(k)
		if !ok || got != want {
			t.Fatalf("accepted key %#x lost (got %d,%v want %d)", k, got, ok, want)
		}
	}
	if tbl.Len() != len(accepted) {
		t.Fatalf("len = %d, want %d", tbl.Len(), len(accepted))
	}
}

func TestReset(t *testing.T) {
	tbl := New[int](64)
	for i := uint64(0); i < 10; i++ {
		tbl.Insert(i, int(i))
	}
	tbl.reset()
	if tbl.Len() != 0 {
		t.Fatalf("len after reset = %d", tbl.Len())
	}
	if tbl.Stats().Inserts != 0 {
		t.Fatal("stats not cleared by reset")
	}
	if _, ok := tbl.Lookup(3); ok {
		t.Fatal("entry survived reset")
	}
	// Table must be reusable after Reset.
	if err := tbl.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Lookup(5); v != 50 {
		t.Fatal("insert after reset broken")
	}
}

func TestStatsCounting(t *testing.T) {
	tbl := New[int](64)
	tbl.Insert(1, 1)
	tbl.Lookup(1)
	tbl.Lookup(2)
	tbl.Delete(1)
	st := tbl.Stats()
	if st.Inserts != 1 || st.Lookups != 2 || st.Hits != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStringSummary(t *testing.T) {
	tbl := New[int](64)
	if s := tbl.String(); !strings.Contains(s, "3-ary") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: a table at paper occupancy behaves exactly like a Go map for
// an arbitrary insert/delete/lookup sequence.
func TestQuickMapEquivalence(t *testing.T) {
	f := func(ops []struct {
		Key uint64
		Val uint16
		Del bool
	}) bool {
		tbl := New[uint16](4*len(ops) + 16)
		ref := map[uint64]uint16{}
		for _, op := range ops {
			if op.Del {
				delRef := false
				if _, ok := ref[op.Key]; ok {
					delete(ref, op.Key)
					delRef = true
				}
				if tbl.Delete(op.Key) != delRef {
					return false
				}
			} else {
				if err := tbl.Insert(op.Key, op.Val); err != nil {
					return false
				}
				ref[op.Key] = op.Val
			}
		}
		if tbl.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tbl.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertPaperOccupancy(b *testing.B) {
	tbl := NewPaperConfig[uint64]()
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.reset()
		for j, k := range keys {
			tbl.Insert(k, uint64(j))
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tbl := NewPaperConfig[uint64]()
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64()
		tbl.Insert(keys[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(keys[i%len(keys)])
	}
}

// FuzzCuckooTable runs random insert/lookup/delete sequences against a
// map model on tiny tables (capacity 1-64, so 1-22 buckets per way
// beside the 8-entry CAM) whose 256-key space saturates them, the regime TestQuickMapEquivalence's
// 4x-oversized table never reaches. It checks that ErrFull is returned
// only for an absent key, that every key stored before an ErrFull still
// looks up with its value afterwards, and that Len always matches the
// model. Each op is two bytes: kind (insert twice as likely as lookup
// or delete, to keep the table full) and key. The seeds are under
// testdata/fuzz/FuzzCuckooTable.
func FuzzCuckooTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		tbl := New[uint16](1 + int(capacity)%64)
		model := map[uint64]uint16{}
		for i := 0; i+1 < len(ops); i += 2 {
			key, val := uint64(ops[i+1]), uint16(i)
			_, had := model[key]
			switch ops[i] % 4 {
			case 0, 1:
				err := tbl.Insert(key, val)
				switch {
				case err == nil:
					model[key] = val
				case !errors.Is(err, ErrFull):
					t.Fatalf("op %d: Insert(%d) = %v", i/2, key, err)
				case had:
					t.Fatalf("op %d: ErrFull for present key %d", i/2, key)
				default:
					for k, v := range model {
						if got, ok := tbl.Lookup(k); !ok || got != v {
							t.Fatalf("op %d: after ErrFull, Lookup(%d) = %d, %v; want %d", i/2, k, got, ok, v)
						}
					}
				}
			case 2:
				if got, ok := tbl.Lookup(key); ok != had || got != model[key] {
					t.Fatalf("op %d: Lookup(%d) = %d, %v; want %d, %v", i/2, key, got, ok, model[key], had)
				}
			case 3:
				if tbl.Delete(key) != had {
					t.Fatalf("op %d: Delete(%d) != %v", i/2, key, had)
				}
				delete(model, key)
			}
			if tbl.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model holds %d", i/2, tbl.Len(), len(model))
			}
		}
		for k, v := range model {
			if got, ok := tbl.Lookup(k); !ok || got != v {
				t.Fatalf("end: Lookup(%d) = %d, %v; want %d", k, got, ok, v)
			}
		}
	})
}
