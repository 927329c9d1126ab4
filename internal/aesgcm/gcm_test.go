package aesgcm

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"math/rand"
	"sync"
	"testing"
)

// NIST SP 800-38D style known-answer vectors (from the GCM spec test set).
func TestGCMKnownAnswers(t *testing.T) {
	cases := []struct {
		name                  string
		key, iv, pt, aad, out string
	}{
		{
			name: "zero key/zero pt (test case 2)",
			key:  "00000000000000000000000000000000",
			iv:   "000000000000000000000000",
			pt:   "00000000000000000000000000000000",
			out:  "0388dace60b6a392f328c2b971b2fe78" + "ab6e47d42cec13bdf53a67b21257bddf",
		},
		{
			name: "test case 3",
			key:  "feffe9928665731c6d6a8f9467308308",
			iv:   "cafebabefacedbaddecaf888",
			pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72" +
				"1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
			out: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e" +
				"21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985" +
				"4d5c2af327cd64a62cf35abd2ba6fab4",
		},
		{
			name: "test case 4 (with AAD, short final block)",
			key:  "feffe9928665731c6d6a8f9467308308",
			iv:   "cafebabefacedbaddecaf888",
			pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72" +
				"1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
			aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
			out: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e" +
				"21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091" +
				"5bc94fbc3221a5db94fae95ae7121a47",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewGCM(unhex(t, c.key))
			if err != nil {
				t.Fatal(err)
			}
			var aad []byte
			if c.aad != "" {
				aad = unhex(t, c.aad)
			}
			got, err := g.Seal(nil, unhex(t, c.iv), unhex(t, c.pt), aad)
			if err != nil {
				t.Fatal(err)
			}
			if want := unhex(t, c.out); !bytes.Equal(got, want) {
				t.Fatalf("seal = %x\nwant  %x", got, want)
			}
			back, err := g.Open(nil, unhex(t, c.iv), got, aad)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, unhex(t, c.pt)) {
				t.Fatal("open did not recover plaintext")
			}
		})
	}
}

func TestGCMMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		keyLen := []int{16, 24, 32}[trial%3]
		key := make([]byte, keyLen)
		rng.Read(key)
		iv := make([]byte, StandardIVSize)
		rng.Read(iv)
		pt := make([]byte, rng.Intn(500))
		rng.Read(pt)
		aad := make([]byte, rng.Intn(40))
		rng.Read(aad)

		ours, err := NewGCM(key)
		if err != nil {
			t.Fatal(err)
		}
		blk, _ := stdaes.NewCipher(key)
		ref, _ := cipher.NewGCM(blk)

		a, err := ours.Seal(nil, iv, pt, aad)
		if err != nil {
			t.Fatal(err)
		}
		b := ref.Seal(nil, iv, pt, aad)
		if !bytes.Equal(a, b) {
			t.Fatalf("trial %d: seal mismatch\nours %x\nref  %x", trial, a, b)
		}
		// Our Open accepts stdlib output and vice versa.
		if _, err := ours.Open(nil, iv, b, aad); err != nil {
			t.Fatalf("trial %d: open of stdlib output failed: %v", trial, err)
		}
		if _, err := ref.Open(nil, iv, a, aad); err != nil {
			t.Fatalf("trial %d: stdlib open of our output failed: %v", trial, err)
		}
	}
}

func TestGCMAuthFailures(t *testing.T) {
	g, _ := NewGCM(make([]byte, 16))
	iv := make([]byte, 12)
	sealed, _ := g.Seal(nil, iv, []byte("attack at dawn"), []byte("hdr"))

	flip := append([]byte(nil), sealed...)
	flip[3] ^= 0x01
	if _, err := g.Open(nil, iv, flip, []byte("hdr")); err != ErrAuth {
		t.Fatalf("tampered ciphertext: err = %v, want ErrAuth", err)
	}
	tag := append([]byte(nil), sealed...)
	tag[len(tag)-1] ^= 0x80
	if _, err := g.Open(nil, iv, tag, []byte("hdr")); err != ErrAuth {
		t.Fatalf("tampered tag: err = %v, want ErrAuth", err)
	}
	if _, err := g.Open(nil, iv, sealed, []byte("other")); err != ErrAuth {
		t.Fatalf("wrong AAD: err = %v, want ErrAuth", err)
	}
	if _, err := g.Open(nil, iv, sealed[:8], nil); err != ErrAuth {
		t.Fatalf("truncated input: err = %v, want ErrAuth", err)
	}
}

func TestGCMIVSizeRejected(t *testing.T) {
	g, _ := NewGCM(make([]byte, 16))
	if _, err := g.Seal(nil, make([]byte, 8), []byte("x"), nil); err == nil {
		t.Fatal("8-byte IV accepted")
	}
	if _, err := g.EIV(make([]byte, 16)); err == nil {
		t.Fatal("16-byte IV accepted by EIV")
	}
}

func TestKeystreamRandomAccess(t *testing.T) {
	// Observation 4: any byte range of the keystream can be generated
	// independently; stitching arbitrary ranges equals the sequential
	// stream.
	g, _ := NewGCM([]byte("0123456789abcdef"))
	iv := []byte("nonce-123456")[:12]
	full := make([]byte, 300)
	if err := g.KeystreamAt(full, iv, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		off := rng.Intn(280)
		n := 1 + rng.Intn(300-off-1)
		part := make([]byte, n)
		if err := g.KeystreamAt(part, iv, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(part, full[off:off+n]) {
			t.Fatalf("keystream at [%d,%d) differs from sequential", off, off+n)
		}
	}
	if err := g.KeystreamAt(make([]byte, 4), iv, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestEIVMatchesTagRelation(t *testing.T) {
	// Seal with empty plaintext and empty AAD: tag = GHASH(lengths) ^ EIV
	// where GHASH of the all-zero lengths block is 0, so tag == EIV.
	g, _ := NewGCM(make([]byte, 16))
	iv := make([]byte, 12)
	sealed, _ := g.Seal(nil, iv, nil, nil)
	eiv, _ := g.EIV(iv)
	if !bytes.Equal(sealed, eiv) {
		t.Fatalf("empty-message tag %x != EIV %x", sealed, eiv)
	}
}

func TestGCMSealAppends(t *testing.T) {
	g, _ := NewGCM(make([]byte, 16))
	iv := make([]byte, 12)
	prefix := []byte("prefix")
	out, _ := g.Seal(prefix, iv, []byte("data"), nil)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Seal must append to dst")
	}
	if len(out) != len(prefix)+4+TagSize {
		t.Fatalf("len = %d", len(out))
	}
}

// TestGCMConcurrentFirstUse seals on one fresh GCM from several
// goroutines at once: the GHASH table is built by the first Seal or
// Open, and racing first calls must all produce crypto/cipher's record.
func TestGCMConcurrentFirstUse(t *testing.T) {
	key, iv := []byte("0123456789abcdef"), []byte("abcdefghijkl")
	pt := bytes.Repeat([]byte("smartdimm"), 100)
	blk, _ := stdaes.NewCipher(key)
	std, _ := cipher.NewGCM(blk)
	want := std.Seal(nil, iv, pt, nil)
	g, err := NewGCM(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = g.Seal(nil, iv, pt, nil)
		}()
	}
	wg.Wait()
	for i, out := range got {
		if !bytes.Equal(out, want) {
			t.Errorf("goroutine %d sealed a different record", i)
		}
	}
}

// TestOpenZeroAllocs checks that Open into a kept dst allocates
// nothing, for a whole-block record and one ending in a partial block:
// the expected tag and the partial keystream block use pooled scratch
// (measured without -race, which empties pools at random).
func TestOpenZeroAllocs(t *testing.T) {
	g, err := NewGCM([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	iv, aad := []byte("abcdefghijkl"), []byte("\x17\x03\x03")
	for _, n := range []int{4096, 1000} {
		pt := bytes.Repeat([]byte("smartdimm"), n/9+1)[:n]
		sealed, err := g.Seal(nil, iv, pt, aad)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, n)
		allocs := testing.AllocsPerRun(50, func() {
			if out, err := g.Open(dst[:0], iv, sealed, aad); err != nil || !bytes.Equal(out, pt) {
				t.Fatalf("%d bytes: Open: %v", n, err)
			}
		})
		if !raceEnabled && allocs != 0 {
			t.Errorf("%d bytes: %v allocs per Open, want 0", n, allocs)
		}
	}
}

func BenchmarkGCMSeal4KB(b *testing.B) {
	g, _ := NewGCM(make([]byte, 16))
	iv := make([]byte, 12)
	pt := make([]byte, 4096)
	dst := make([]byte, 0, 4096+TagSize)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		g.Seal(dst[:0], iv, pt, nil)
	}
}
