package aesgcm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"math/rand"
	"testing"
)

// mulBitSerial is the textbook bit-serial GF(2^128) multiply (SP 800-38D
// Algorithm 1), one shift-and-conditional-add per bit of e, the way a
// minimal hardware multiplier steps. It is the reference that Mul and
// the table multiplies are checked against.
func (e FieldEl) mulBitSerial(o FieldEl) FieldEl {
	var z FieldEl
	v := o
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = (e.Hi >> (63 - uint(i))) & 1
		} else {
			bit = (e.Lo >> (127 - uint(i))) & 1
		}
		if bit == 1 {
			z.Hi ^= v.Hi
			z.Lo ^= v.Lo
		}
		lsb := v.Lo & 1
		v.Lo = v.Lo>>1 | v.Hi<<63
		v.Hi >>= 1
		if lsb == 1 {
			v.Hi ^= gcmR
		}
	}
	return z
}

// FuzzFieldElMul checks the Karatsuba multiply against the bit-serial
// reference. Seeds (testdata/fuzz/FuzzFieldElMul) pair 0, 1, x^127 and
// all-ones.
func FuzzFieldElMul(f *testing.F) {
	f.Fuzz(func(t *testing.T, aHi, aLo, bHi, bLo uint64) {
		a, b := FieldEl{Hi: aHi, Lo: aLo}, FieldEl{Hi: bHi, Lo: bLo}
		if got, want := a.Mul(b), a.mulBitSerial(b); got != want {
			t.Fatalf("(%016x%016x)*(%016x%016x) = %016x%016x, bit-serial %016x%016x",
				aHi, aLo, bHi, bLo, got.Hi, got.Lo, want.Hi, want.Lo)
		}
	})
}

// FuzzCachelineEngine checks the out-of-order cacheline engine against
// crypto/cipher's GCM in both directions. The inputs are shaped into a
// 16/24/32-byte key, a 12-byte IV, at most 255 bytes of AAD and a record
// of at most 16 KiB; seed orders the cachelines and fills the payload,
// and flip picks the tag bit a forged record flips. Encryption runs on a
// KeySchedule, decryption on a cold engine.
func FuzzCachelineEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, iv, aad []byte, length uint16, seed int64, flip uint8) {
		switch len(key) {
		case 16, 24, 32:
		default:
			k := make([]byte, []int{16, 24, 32}[len(key)%3])
			copy(k, key)
			key = k
		}
		iv12 := make([]byte, StandardIVSize)
		copy(iv12, iv)
		if len(aad) > 255 {
			aad = aad[:255]
		}
		n := int(length) % (16384 + 1)
		rng := rand.New(rand.NewSource(seed))
		pt := make([]byte, n)
		rng.Read(pt)

		blk, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		std, err := cipher.NewGCM(blk)
		if err != nil {
			t.Fatal(err)
		}
		sealed := std.Seal(nil, iv12, pt, aad)
		h, eiv := make([]byte, BlockSize), make([]byte, BlockSize)
		blk.Encrypt(h, h)
		copy(eiv, iv12)
		eiv[BlockSize-1] = 1
		blk.Encrypt(eiv, eiv)
		cfg := RecordConfig{Key: key, IV: iv12, H: h, EIV: eiv, AAD: aad, Length: n}

		// process runs every cacheline of src through eng in a random
		// order, in place on a copy, and returns the output.
		process := func(eng *CachelineEngine, src []byte) []byte {
			out := append([]byte(nil), src...)
			for _, cl := range rng.Perm((n + CachelineSize - 1) / CachelineSize) {
				off := cl * CachelineSize
				end := min(off+CachelineSize, n)
				if err := eng.ProcessCacheline(out[off:end], out[off:end], off); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}

		ks, err := NewKeySchedule(key, h)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ks.NewEngine(Encrypt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ct := process(enc, pt)
		tag, err := enc.Tag()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(ct, tag...), sealed) {
			t.Fatalf("encrypt: ct||tag differs from crypto/cipher (n=%d, key %d B, aad %d B)", n, len(key), len(aad))
		}

		dec, err := NewCachelineEngine(Decrypt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := process(dec, sealed[:n]); !bytes.Equal(got, pt) {
			t.Fatalf("decrypt: plaintext differs (n=%d)", n)
		}
		if err := dec.VerifyTag(sealed[n:]); err != nil {
			t.Fatalf("decrypt: genuine tag rejected: %v", err)
		}
		forged := append([]byte(nil), sealed[n:]...)
		forged[flip%TagSize] ^= 1 << (flip / TagSize % 8)
		if err := dec.VerifyTag(forged); !errors.Is(err, ErrAuth) {
			t.Fatalf("decrypt: flipped tag bit %d gave %v, want ErrAuth", flip, err)
		}
	})
}
