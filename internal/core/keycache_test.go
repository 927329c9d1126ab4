package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/memsys"
)

// stdSeal is the crypto/cipher reference: ciphertext || tag.
func stdSeal(t *testing.T, key, iv, pt, aad []byte) []byte {
	t.Helper()
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cipher.NewGCM(blk)
	if err != nil {
		t.Fatal(err)
	}
	return g.Seal(nil, iv, pt, aad)
}

// dsaRecord drives one TLS record through a DSA built by buildDSA, one
// 64-byte source line per step, collecting the destination record.
type dsaRecord struct {
	dsa  dsaInstance
	src  []byte // the record space: payload || 16-byte trailer
	out  []byte
	next int
}

// startTLSRecord registers a record on keys. src is the whole record
// space; h, when non-nil, replaces the CPU-computed hash subkey.
func startTLSRecord(t *testing.T, keys *scheduleCache, dir aesgcm.Direction, key, iv, aad, src, h []byte) *dsaRecord {
	t.Helper()
	ctx := tlsOffloadContext(t, dir, key, iv, aad, len(src)-TagSize)
	if h != nil {
		ctx.TLS.H = h
	}
	raw, err := marshalContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dsa, err := buildDSA(ctx.Op, len(src), raw, keys)
	if err != nil {
		t.Fatal(err)
	}
	return &dsaRecord{dsa: dsa, src: src, out: make([]byte, len(src))}
}

// step feeds the next source line and reports whether any remain.
func (r *dsaRecord) step(t *testing.T) bool {
	t.Helper()
	end := r.next + dram.CachelineSize
	if end > len(r.src) {
		end = len(r.src)
	}
	lines, err := r.dsa.ProcessSourceLine(r.next, r.src[r.next:end])
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		copy(r.out[l.RecOff:], l.Data[:])
	}
	r.next = end
	return r.next < len(r.src)
}

// runTLSRecord runs a whole record in order and returns the destination.
func runTLSRecord(t *testing.T, keys *scheduleCache, dir aesgcm.Direction, key, iv, aad, src, h []byte) []byte {
	t.Helper()
	r := startTLSRecord(t, keys, dir, key, iv, aad, src, h)
	for r.step(t) {
	}
	return r.out
}

// withTrailer returns payload followed by a zero trailer, the source
// space of an encrypt record.
func withTrailer(payload []byte) []byte {
	return append(append([]byte(nil), payload...), make([]byte, TagSize)...)
}

func TestKeyCacheInterleavedConnections(t *testing.T) {
	keys := newScheduleCache(8)
	type conn struct {
		key []byte
		pt  []byte
	}
	conns := []conn{
		{[]byte("0123456789abcdef"), corpus.Generate(corpus.Text, 4096-TagSize, 1)},
		{[]byte("0123456789abcdefghijklmnopqrstuv"), corpus.Generate(corpus.HTML, 1000, 2)},
	}
	aad := []byte{0x17, 0x03, 0x03, 0x10, 0x00}
	// Two rounds: the first builds both schedules, the second reuses them
	// while both records are in flight at once.
	for round := 0; round < 2; round++ {
		recs := make([]*dsaRecord, len(conns))
		ivs := make([][]byte, len(conns))
		for i, c := range conns {
			ivs[i] = []byte{byte(round), byte(i), 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
			recs[i] = startTLSRecord(t, keys, aesgcm.Encrypt, c.key, ivs[i], aad, withTrailer(c.pt), nil)
		}
		for busy := true; busy; {
			busy = false
			for _, r := range recs {
				if r.next < len(r.src) && r.step(t) {
					busy = true
				}
			}
		}
		for i, c := range conns {
			if want := stdSeal(t, c.key, ivs[i], c.pt, aad); !bytes.Equal(recs[i].out, want) {
				t.Fatalf("round %d conn %d: record differs from crypto/cipher", round, i)
			}
		}
	}
	if len(keys.m) != len(conns) {
		t.Fatalf("%d schedules cached, want one per connection (%d)", len(keys.m), len(conns))
	}
}

func TestKeyCacheTamperedHNotReused(t *testing.T) {
	keys := newScheduleCache(8)
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	pt := corpus.Generate(corpus.Text, 4096-TagSize, 3)
	want := stdSeal(t, key, iv, pt, nil)

	if got := runTLSRecord(t, keys, aesgcm.Encrypt, key, iv, nil, withTrailer(pt), nil); !bytes.Equal(got, want) {
		t.Fatal("honest record differs from crypto/cipher")
	}
	// Same key, but the CPU hands over a different H: the device must
	// build powers of that H, exactly as a device with no cache would.
	badH := make([]byte, aesgcm.BlockSize)
	badH[0] = 0x5A
	got := runTLSRecord(t, keys, aesgcm.Encrypt, key, iv, nil, withTrailer(pt), badH)
	cold := runTLSRecord(t, newScheduleCache(1), aesgcm.Encrypt, key, iv, nil, withTrailer(pt), badH)
	if !bytes.Equal(got, cold) {
		t.Fatal("tampered-H record differs from a cold device's")
	}
	if bytes.Equal(got[len(pt):], want[len(pt):]) {
		t.Fatal("tampered H produced the honest tag: stale powers reused")
	}
	if got := runTLSRecord(t, keys, aesgcm.Encrypt, key, iv, nil, withTrailer(pt), nil); !bytes.Equal(got, want) {
		t.Fatal("honest record after the tampered one differs from crypto/cipher")
	}
	if len(keys.m) != 2 {
		t.Fatalf("%d schedules cached, want 2 (one per (key, H))", len(keys.m))
	}
}

func TestKeyCachePowersGrow(t *testing.T) {
	key := []byte("0123456789abcdefghijklmn")
	aad := []byte("hdr")
	for _, dir := range []aesgcm.Direction{aesgcm.Encrypt, aesgcm.Decrypt} {
		keys := newScheduleCache(8)
		// Short, long, then short again: the long record needs powers the
		// short one never built.
		for i, n := range []int{100, 16384 - TagSize, 200} {
			iv := []byte{byte(dir), byte(i), 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
			pt := corpus.Generate(corpus.Text, n, int64(i))
			sealed := stdSeal(t, key, iv, pt, aad)
			if dir == aesgcm.Encrypt {
				if got := runTLSRecord(t, keys, dir, key, iv, aad, withTrailer(pt), nil); !bytes.Equal(got, sealed) {
					t.Fatalf("encrypt %d B: record differs from crypto/cipher", n)
				}
				continue
			}
			got := runTLSRecord(t, keys, dir, key, iv, aad, sealed, nil)
			if !bytes.Equal(got[:n], pt) {
				t.Fatalf("decrypt %d B: plaintext mismatch", n)
			}
			if got[n] != 1 {
				t.Fatalf("decrypt %d B: tag did not verify", n)
			}
		}
		if len(keys.m) != 1 {
			t.Fatalf("dir %d: %d schedules cached, want 1", dir, len(keys.m))
		}
	}
}

func TestKeyCacheBoundedByConfigPages(t *testing.T) {
	cfg := PaperDeviceConfig(dram.SmallGeometry())
	cfg.ConfigPages = 4
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := cache.MustNew(cache.Config{SizeBytes: 256 * 1024, Ways: 8,
		WayMask: [2]uint64{cache.ClassDMA: 0b11}})
	hier, err := memsys.New(llc, memsys.Channel{Ctl: memctrl.New(memctrl.DefaultConfig(), dev), Mod: dev})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{dev: dev, hier: hier, driver: NewDriver(hier, 0, dram.SmallGeometry().CapacityBytes(), 1)}

	rng := rand.New(rand.NewSource(7))
	iv := []byte("abcdefghijkl")
	pt := corpus.Generate(corpus.Text, 1000, 4)
	for i := 0; i < 3*cfg.ConfigPages+1; i++ {
		key := make([]byte, 16)
		rng.Read(key)
		got := runTLSEncrypt(t, r, key, iv, nil, pt)
		if want := stdSeal(t, key, iv, pt, nil); !bytes.Equal(got, want) {
			t.Fatalf("key %d: record differs from crypto/cipher", i)
		}
		if n := len(dev.keys.m); n > cfg.ConfigPages {
			t.Fatalf("key %d: %d schedules cached, bound is %d", i, n, cfg.ConfigPages)
		}
	}
}
