package aesgcm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
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

// FuzzGHASHFold checks the aggregated reduction: 1 + n%4 products summed
// unreduced and reduced once must equal the sum of the bit-serial
// products. blocks holds the operand pairs (x_i, h_i), 32 bytes each,
// zero-padded. Seeds (testdata/fuzz/FuzzGHASHFold) cover one to four
// blocks of 0, 1, x^127 and all-ones.
func FuzzGHASHFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, blocks []byte) {
		k := 1 + int(n%Stride)
		buf := make([]byte, 2*BlockSize*Stride)
		copy(buf, blocks)
		var acc product
		var want FieldEl
		for i := 0; i < k; i++ {
			x, h := LoadEl(buf[2*BlockSize*i:]), LoadEl(buf[2*BlockSize*i+BlockSize:])
			acc.add(x, newHPower(h))
			want = want.Xor(x.mulBitSerial(h))
		}
		if got := acc.reduce(); got != want {
			t.Fatalf("%d-block fold = %016x%016x, bit-serial sum %016x%016x", k, got.Hi, got.Lo, want.Hi, want.Lo)
		}
	})
}

// fuzzKey shapes arbitrary fuzz bytes into a 16-, 24- or 32-byte AES key.
func fuzzKey(key []byte) []byte {
	switch len(key) {
	case 16, 24, 32:
		return key
	}
	k := make([]byte, []int{16, 24, 32}[len(key)%3])
	copy(k, key)
	return k
}

// FuzzAESBlock checks Cipher's crypto/aes block against the T-table
// oracle for 16-, 24- and 32-byte keys, and the oracle's inverse cipher
// against both.
func FuzzAESBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, block []byte) {
		key = fuzzKey(key)
		var pt, got, want, back [BlockSize]byte
		copy(pt[:], block)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newTableCipher(key)
		c.Encrypt(got[:], pt[:])
		oracle.Encrypt(want[:], pt[:])
		if got != want {
			t.Fatalf("key %d B, block %x: crypto/aes %x, oracle %x", len(key), pt, got, want)
		}
		if oracle.Decrypt(back[:], got[:]); back != pt {
			t.Fatalf("key %d B: oracle decrypts %x to %x, want %x", len(key), got, back, pt)
		}
	})
}

// FuzzGCMOpen checks that GCM.Open never panics on tampered input and
// fails only with a typed error. A genuine record sealed under key, iv
// and aad must open to pt, as it does under crypto/cipher; the record
// with bit flip flipped, the record truncated or zero-extended to
// cut % (2*len) bytes, and the record
// opened under the IV as given (when it is not 12 bytes) must each fail
// with ErrAuth or ErrIVSize.
func FuzzGCMOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, iv, aad, pt []byte, flip, cut uint16) {
		key = fuzzKey(key)
		iv12 := make([]byte, StandardIVSize)
		copy(iv12, iv)
		pt = pt[:min(len(pt), 16384)]
		g, err := NewGCM(key)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := g.Seal(nil, iv12, pt, aad)
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
		if want := std.Seal(nil, iv12, pt, aad); !bytes.Equal(sealed, want) {
			t.Fatalf("Seal differs from crypto/cipher (pt %d B, aad %d B)", len(pt), len(aad))
		}
		if got, err := g.Open(nil, iv12, sealed, aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("genuine record: err %v, plaintext equal %v", err, bytes.Equal(got, pt))
		}

		typed := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ErrAuth) && !errors.Is(err, ErrIVSize) {
				t.Fatalf("%s: err = %v, want ErrAuth or ErrIVSize", what, err)
			}
		}
		forged := append([]byte(nil), sealed...)
		bit := int(flip) % (8 * len(forged))
		forged[bit/8] ^= 1 << (bit % 8)
		_, err = g.Open(nil, iv12, forged, aad)
		typed(fmt.Sprintf("bit %d flipped", bit), err)
		if n := int(cut) % (2 * len(sealed)); n != len(sealed) {
			resized := make([]byte, n)
			copy(resized, sealed)
			_, err = g.Open(nil, iv12, resized, aad)
			typed(fmt.Sprintf("resized to %d of %d bytes", n, len(sealed)), err)
		}
		if len(iv) != StandardIVSize {
			_, err = g.Open(nil, iv, sealed, aad)
			typed(fmt.Sprintf("%d-byte IV", len(iv)), err)
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
		key = fuzzKey(key)
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
		if !bytes.Equal(append(ct, tag[:]...), sealed) {
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
