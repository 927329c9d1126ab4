package aesgcm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGHASHMatchesMulDefinition(t *testing.T) {
	// The windowed table multiply must equal the bit-serial reference.
	f := func(h, y [16]byte) bool {
		tbl := newMulTable(LoadEl(h[:]))
		got := tbl.mul(LoadEl(y[:]))
		want := LoadEl(y[:]).mulBitSerial(LoadEl(h[:]))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldElAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randEl := func() FieldEl { return FieldEl{Hi: rng.Uint64(), Lo: rng.Uint64()} }
	for i := 0; i < 50; i++ {
		a, b, c := randEl(), randEl(), randEl()
		// Commutativity.
		if a.Mul(b) != b.Mul(a) {
			t.Fatal("mul not commutative")
		}
		// Distributivity over XOR.
		if a.Mul(b.Xor(c)) != a.Mul(b).Xor(a.Mul(c)) {
			t.Fatal("mul not distributive")
		}
		// Associativity.
		if a.Mul(b).Mul(c) != a.Mul(b.Mul(c)) {
			t.Fatal("mul not associative")
		}
	}
	// Multiplicative identity: the element "1" is x^0, MSB of byte 0.
	one := FieldEl{Hi: 1 << 63}
	a := randEl()
	if a.Mul(one) != a {
		t.Fatal("identity element wrong")
	}
	if a.Mul(FieldEl{}) != (FieldEl{}) || a.Xor(FieldEl{}) != a {
		t.Fatal("zero element wrong")
	}
}

func TestFieldElStoreLoad(t *testing.T) {
	f := func(b [16]byte) bool {
		var out [16]byte
		LoadEl(b[:]).Store(out[:])
		return out == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHPowersMatchSerialChain(t *testing.T) {
	h := make([]byte, 16)
	rand.New(rand.NewSource(4)).Read(h)
	hp := NewHPowers(h, 300)
	if len(hp.powers) != 300 {
		t.Fatalf("count = %d", len(hp.powers))
	}
	he := LoadEl(h)
	want := he
	for i := 1; i <= 300; i++ {
		if got := hp.power(i); got != want {
			t.Fatalf("H^%d mismatch", i)
		}
		want = want.Mul(he)
	}
}

func TestHPowersSmallCounts(t *testing.T) {
	h := make([]byte, 16)
	h[0] = 0x42
	for _, n := range []int{0, 1, 2, 3, 4, 5} {
		hp := NewHPowers(h, n)
		if len(hp.powers) != n {
			t.Fatalf("n=%d: count=%d", n, len(hp.powers))
		}
		he := LoadEl(h)
		want := he
		for i := 1; i <= n; i++ {
			if hp.power(i) != want {
				t.Fatalf("n=%d: H^%d mismatch", n, i)
			}
			want = want.Mul(he)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range power must panic")
		}
	}()
	NewHPowers(h, 2).power(3)
}

func TestGHASHUpdateSplitInvariance(t *testing.T) {
	// GHASH over full blocks must not depend on Update call boundaries.
	h := make([]byte, 16)
	h[5] = 9
	data := make([]byte, 128)
	rand.New(rand.NewSource(5)).Read(data)
	g1 := NewGHASH(h)
	g1.Update(data)
	g2 := NewGHASH(h)
	g2.Update(data[:64])
	g2.Update(data[64:])
	a, b := make([]byte, 16), make([]byte, 16)
	if !bytes.Equal(g1.Sum(a), g2.Sum(b)) {
		t.Fatal("split Update changed GHASH")
	}
	g1 = NewGHASH(h)
	g1.Update(nil)
	var zero [16]byte
	if !bytes.Equal(g1.Sum(a), zero[:]) {
		t.Fatal("GHASH of nothing should be zero")
	}
}

func engineConfig(t *testing.T, key, iv []byte, aad []byte, length int) RecordConfig {
	t.Helper()
	g, err := NewGCM(key)
	if err != nil {
		t.Fatal(err)
	}
	eiv, err := g.EIV(iv)
	if err != nil {
		t.Fatal(err)
	}
	return RecordConfig{Key: key, IV: iv, H: g.H(), EIV: eiv, AAD: aad, Length: length}
}

// TestEngineMatchesSealInOrder: processing cachelines 0..n sequentially
// must produce exactly GCM.Seal's ciphertext and tag.
func TestEngineMatchesSealInOrder(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	for _, size := range []int{1, 63, 64, 65, 100, 4096, 4096 + 17} {
		aad := []byte("\x17\x03\x03\x10\x00") // the TLS record header ulp.Header(4096)
		pt := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(pt)

		eng, err := NewCachelineEngine(Encrypt, engineConfig(t, key, iv, aad, size))
		if err != nil {
			t.Fatal(err)
		}
		ct := make([]byte, size)
		for off := 0; off < size; off += CachelineSize {
			end := off + CachelineSize
			if end > size {
				end = size
			}
			if err := eng.ProcessCacheline(ct[off:end], pt[off:end], off); err != nil {
				t.Fatalf("size %d off %d: %v", size, off, err)
			}
		}
		if !eng.Done() {
			t.Fatalf("size %d: engine not done", size)
		}
		tag, err := eng.Tag()
		if err != nil {
			t.Fatal(err)
		}

		g, _ := NewGCM(key)
		want, _ := g.Seal(nil, iv, pt, aad)
		if !bytes.Equal(ct, want[:size]) {
			t.Fatalf("size %d: ciphertext mismatch", size)
		}
		if !bytes.Equal(tag[:], want[size:]) {
			t.Fatalf("size %d: tag mismatch: %x vs %x", size, tag, want[size:])
		}
	}
}

// TestEngineFoldsSurviveScheduleGrowth claims a record on a key
// schedule and runs its datapath on another goroutine while a longer
// record grows the same schedule, as a device's worker does while the
// device registers the next record. The engine reads the powers Reset
// left it, so the record still gets crypto/cipher's tag; run under
// -race, any read of the growing table is a report.
func TestEngineFoldsSurviveScheduleGrowth(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	aad := []byte("\x17\x03\x03\x03\xf8")
	const short, long = 1000, 16384
	pt := make([]byte, short)
	rand.New(rand.NewSource(11)).Read(pt)
	cfg := engineConfig(t, key, iv, aad, short)
	ks, err := NewKeySchedule(key, cfg.H)
	if err != nil {
		t.Fatal(err)
	}
	var e CachelineEngine
	if err := e.Reset(ks, Encrypt, cfg); err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), pt...)
	for off := 0; off < short; off += CachelineSize {
		if _, err := e.Claim(off); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := 0; off < short; off += CachelineSize {
			end := min(off+CachelineSize, short)
			e.Transform(buf[off:end], buf[off:end], off)
		}
	}()
	var next CachelineEngine
	if err := next.Reset(ks, Encrypt, engineConfig(t, key, iv, aad, long)); err != nil {
		t.Fatal(err)
	}
	<-done
	tag, err := e.Tag()
	if err != nil {
		t.Fatal(err)
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	std, err := cipher.NewGCM(blk)
	if err != nil {
		t.Fatal(err)
	}
	want := std.Seal(nil, iv, pt, aad)
	if !bytes.Equal(append(buf, tag[:]...), want) {
		t.Fatal("record sealed beside a growing schedule differs from crypto/cipher")
	}
}

// TestEngineOutOfOrder: the central §V-A property — cachelines processed
// in any order yield the identical record and tag.
func TestEngineOutOfOrder(t *testing.T) {
	key := []byte("0123456789abcdefghijklmnopqrstuv") // AES-256
	iv := []byte("abcdefghijkl")
	size := 4096 + 33
	pt := make([]byte, size)
	rng := rand.New(rand.NewSource(11))
	rng.Read(pt)
	aad := []byte("record-header")

	g, _ := NewGCM(key)
	want, _ := g.Seal(nil, iv, pt, aad)

	for trial := 0; trial < 5; trial++ {
		eng, err := NewCachelineEngine(Encrypt, engineConfig(t, key, iv, aad, size))
		if err != nil {
			t.Fatal(err)
		}
		nCL := (size + CachelineSize - 1) / CachelineSize
		order := rng.Perm(nCL)
		ct := make([]byte, size)
		for _, cl := range order {
			off := cl * CachelineSize
			end := off + CachelineSize
			if end > size {
				end = size
			}
			if _, err := eng.Tag(); err == nil && !eng.Done() {
				t.Fatal("tag available before completion")
			}
			if err := eng.ProcessCacheline(ct[off:end], pt[off:end], off); err != nil {
				t.Fatal(err)
			}
		}
		tag, err := eng.Tag()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ct, want[:size]) || !bytes.Equal(tag[:], want[size:]) {
			t.Fatalf("trial %d: out-of-order result differs from in-order", trial)
		}
	}
}

func TestEngineDecryptRoundTripAndVerify(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	size := 1000
	pt := make([]byte, size)
	rand.New(rand.NewSource(13)).Read(pt)
	g, _ := NewGCM(key)
	sealed, _ := g.Seal(nil, iv, pt, nil)
	ct, tag := sealed[:size], sealed[size:]

	eng, err := NewCachelineEngine(Decrypt, engineConfig(t, key, iv, nil, size))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, size)
	// Decrypt back-to-front to stress out-of-order on the RX path.
	for off := ((size - 1) / CachelineSize) * CachelineSize; off >= 0; off -= CachelineSize {
		end := off + CachelineSize
		if end > size {
			end = size
		}
		if err := eng.ProcessCacheline(out[off:end], ct[off:end], off); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out, pt) {
		t.Fatal("decrypt mismatch")
	}
	if err := eng.VerifyTag(tag); err != nil {
		t.Fatalf("tag verify failed: %v", err)
	}
	bad := append([]byte(nil), tag...)
	bad[0] ^= 1
	if err := eng.VerifyTag(bad); err != ErrAuth {
		t.Fatalf("bad tag: err = %v, want ErrAuth", err)
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	cfg := engineConfig(t, key, iv, nil, 128)
	eng, _ := NewCachelineEngine(Encrypt, cfg)
	buf := make([]byte, 64)

	if err := eng.ProcessCacheline(buf, buf, 32); err == nil {
		t.Error("unaligned offset accepted")
	}
	if err := eng.ProcessCacheline(buf, buf, 192); err == nil {
		t.Error("offset past record accepted")
	}
	if err := eng.ProcessCacheline(buf[:10], buf, 0); err == nil {
		t.Error("short dst accepted")
	}
	if err := eng.ProcessCacheline(buf, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessCacheline(buf, buf, 0); err == nil {
		t.Error("double processing accepted (S7 bookkeeping)")
	}
	if eng.Remaining() != 1 {
		t.Errorf("remaining = %d, want 1", eng.Remaining())
	}

	// Config validation.
	bad := cfg
	bad.Length = -1
	if _, err := NewCachelineEngine(Encrypt, bad); err == nil {
		t.Error("negative length accepted")
	}
	bad = cfg
	bad.IV = []byte("short")
	if _, err := NewCachelineEngine(Encrypt, bad); err == nil {
		t.Error("short IV accepted")
	}
	bad = cfg
	bad.H = nil
	if _, err := NewCachelineEngine(Encrypt, bad); err == nil {
		t.Error("missing H accepted")
	}
	bad = cfg
	bad.Key = []byte("tiny")
	if _, err := NewCachelineEngine(Encrypt, bad); err == nil {
		t.Error("bad key accepted")
	}
	for _, dir := range []Direction{-1, 2} {
		if _, err := NewCachelineEngine(dir, cfg); err == nil {
			t.Errorf("direction %d accepted", dir)
		}
	}

	// A kept schedule serves only the (key, H) it was built for.
	ks, err := NewKeySchedule(key, cfg.H)
	if err != nil {
		t.Fatal(err)
	}
	bad = cfg
	bad.Key = []byte("fedcba9876543210")
	if _, err := ks.NewEngine(Encrypt, bad); err == nil {
		t.Error("schedule of another key accepted")
	}
	bad = cfg
	bad.H = make([]byte, BlockSize)
	if _, err := ks.NewEngine(Encrypt, bad); err == nil {
		t.Error("schedule of another H accepted")
	}
}

// TestCachelineZeroAllocs checks that processing a cacheline on an
// engine built from a kept KeySchedule allocates nothing, in either
// direction: the counter blocks and keystream are engine-owned.
func TestCachelineZeroAllocs(t *testing.T) {
	key := []byte("0123456789abcdef")
	cfg := engineConfig(t, key, []byte("abcdefghijkl"), []byte("\x17\x03\x03\x40\x00"), 16384)
	ks, err := NewKeySchedule(key, cfg.H)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]byte, CachelineSize), make([]byte, CachelineSize)
	for _, dir := range []Direction{Encrypt, Decrypt} {
		eng, err := ks.NewEngine(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := eng.ProcessCacheline(dst, src, off); err != nil {
				t.Fatal(err)
			}
			off += CachelineSize
		})
		if allocs != 0 {
			t.Errorf("direction %d: %v allocs per cacheline, want 0", dir, allocs)
		}
	}
}

func TestEngineZeroLengthRecord(t *testing.T) {
	cfg := engineConfig(t, []byte("0123456789abcdef"), []byte("abcdefghijkl"), nil, 0)
	eng, err := NewCachelineEngine(Encrypt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Done() {
		t.Fatal("zero-length record should be immediately done")
	}
	tag, err := eng.Tag()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGCM([]byte("0123456789abcdef"))
	want, _ := g.Seal(nil, []byte("abcdefghijkl"), nil, nil)
	if !bytes.Equal(tag[:], want) {
		t.Fatal("zero-length tag mismatch")
	}
}

func TestRecordConfigBytesWithinConfigPage(t *testing.T) {
	// The paper allocates 1KB of Config Memory context per source page;
	// the engine's context layout must fit.
	cfg := RecordConfig{
		Key: make([]byte, 32), IV: make([]byte, 12),
		H: make([]byte, 16), EIV: make([]byte, 16),
		AAD: make([]byte, 13), Length: 4096,
	}
	if n := cfg.configBytes(); n > 1024 {
		t.Fatalf("config footprint %dB exceeds the paper's 1KB context", n)
	}
}

func BenchmarkEngineCacheline(b *testing.B) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	g, _ := NewGCM(key)
	eiv, _ := g.EIV(iv)
	const recordLen = 1 << 20
	cfg := RecordConfig{Key: key, IV: iv, H: g.H(), EIV: eiv, Length: recordLen}
	eng, _ := NewCachelineEngine(Encrypt, cfg)
	src := make([]byte, CachelineSize)
	dst := make([]byte, CachelineSize)
	b.SetBytes(CachelineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % (recordLen / CachelineSize)) * CachelineSize
		eng.processed[off/CachelineSize] = false // reuse engine across iterations
		if err := eng.ProcessCacheline(dst, src, off); err != nil {
			b.Fatal(err)
		}
		eng.doneCLs--
	}
}
