package aesgcm

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// tableCipher is a from-scratch AES (FIPS-197) built on T-tables: the
// differential oracle for Cipher's crypto/aes block. Its S-box is
// generated from the GF(2^8) inverse plus the affine transform rather
// than hardcoded, to keep it auditable, and it keeps the equivalent
// inverse cipher so the known answers check decryption too.
type tableCipher struct {
	enc    []uint32 // round keys for encryption
	dec    []uint32 // round keys for decryption (equivalent inverse cipher)
	rounds int
}

var (
	sbox  [256]byte
	isbox [256]byte

	// GF(2^8) constant-multiplication tables for the MixColumns (x2, x3)
	// and InvMixColumns (x9, x11, x13, x14) matrices.
	mul2, mul3, mul9, mul11, mul13, mul14 [256]byte

	// te0..te3 fuse SubBytes and MixColumns for one encryption round:
	// te_i[x] is the column MixColumns produces from sbox[x] placed in
	// row i, so a round column is four lookups XORed together.
	te0, te1, te2, te3 [256]uint32
)

// gf8Mul multiplies two elements of GF(2^8) modulo x^8+x^4+x^3+x+1.
func gf8Mul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

func init() {
	// GF(2^8) inverses by brute force, then the affine transform
	// b_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i.
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gf8Mul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	rotl8 := func(x byte, n uint) byte { return x<<n | x>>(8-n) }
	for i := 0; i < 256; i++ {
		x := inv[i]
		y := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = y
		isbox[y] = byte(i)
	}
	for i := 0; i < 256; i++ {
		b := byte(i)
		mul2[i], mul3[i] = gf8Mul(b, 2), gf8Mul(b, 3)
		mul9[i], mul11[i] = gf8Mul(b, 9), gf8Mul(b, 11)
		mul13[i], mul14[i] = gf8Mul(b, 13), gf8Mul(b, 14)
	}
	for i := 0; i < 256; i++ {
		s := uint32(sbox[i])
		s2, s3 := uint32(mul2[sbox[i]]), uint32(mul3[sbox[i]])
		te0[i] = s2<<24 | s<<16 | s<<8 | s3
		te1[i] = s3<<24 | s2<<16 | s<<8 | s
		te2[i] = s<<24 | s3<<16 | s2<<8 | s
		te3[i] = s<<24 | s<<16 | s3<<8 | s2
	}
}

// newTableCipher expands key (16, 24, or 32 bytes).
func newTableCipher(key []byte) *tableCipher {
	nk := len(key) / 4
	rounds := nk + 6
	c := &tableCipher{rounds: rounds}
	n := 4 * (rounds + 1)
	c.enc = make([]uint32, n)
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	subWord := func(w uint32) uint32 {
		return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
			uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
	}
	rcon := uint32(1)
	for i := nk; i < n; i++ {
		t := c.enc[i-1]
		if i%nk == 0 {
			t = subWord(t<<8|t>>24) ^ (rcon << 24)
			rcon = uint32(mul2[rcon])
		} else if nk > 6 && i%nk == 4 {
			t = subWord(t)
		}
		c.enc[i] = c.enc[i-nk] ^ t
	}
	// Equivalent inverse cipher key schedule: reverse round order and
	// apply InvMixColumns to the middle round keys.
	c.dec = make([]uint32, n)
	for i := 0; i <= rounds; i++ {
		for j := 0; j < 4; j++ {
			w := c.enc[4*(rounds-i)+j]
			if i != 0 && i != rounds {
				b0, b1, b2, b3 := w>>24, w>>16&0xff, w>>8&0xff, w&0xff
				w = uint32(mul14[b0]^mul11[b1]^mul13[b2]^mul9[b3])<<24 |
					uint32(mul9[b0]^mul14[b1]^mul11[b2]^mul13[b3])<<16 |
					uint32(mul13[b0]^mul9[b1]^mul14[b2]^mul11[b3])<<8 |
					uint32(mul11[b0]^mul13[b1]^mul9[b2]^mul14[b3])
			}
			c.dec[4*i+j] = w
		}
	}
	return c
}

// Encrypt encrypts one 16-byte block from src into dst (may alias).
func (c *tableCipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesgcm: block too short")
	}
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ c.enc[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ c.enc[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ c.enc[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ c.enc[3]
	// One column of SubBytes+ShiftRows+MixColumns; w0 supplies the top byte.
	round := func(w0, w1, w2, w3 uint32) uint32 {
		return te0[w0>>24] ^ te1[w1>>16&0xff] ^ te2[w2>>8&0xff] ^ te3[w3&0xff]
	}
	for r := 1; r < c.rounds; r++ {
		t0 := round(s0, s1, s2, s3) ^ c.enc[4*r]
		t1 := round(s1, s2, s3, s0) ^ c.enc[4*r+1]
		t2 := round(s2, s3, s0, s1) ^ c.enc[4*r+2]
		t3 := round(s3, s0, s1, s2) ^ c.enc[4*r+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// Final round: SubBytes + ShiftRows, no MixColumns.
	final := func(w0, w1, w2, w3 uint32) uint32 {
		return uint32(sbox[w0>>24])<<24 | uint32(sbox[w1>>16&0xff])<<16 |
			uint32(sbox[w2>>8&0xff])<<8 | uint32(sbox[w3&0xff])
	}
	r := c.rounds
	binary.BigEndian.PutUint32(dst[0:4], final(s0, s1, s2, s3)^c.enc[4*r])
	binary.BigEndian.PutUint32(dst[4:8], final(s1, s2, s3, s0)^c.enc[4*r+1])
	binary.BigEndian.PutUint32(dst[8:12], final(s2, s3, s0, s1)^c.enc[4*r+2])
	binary.BigEndian.PutUint32(dst[12:16], final(s3, s0, s1, s2)^c.enc[4*r+3])
}

// Decrypt decrypts one 16-byte block from src into dst (may alias).
func (c *tableCipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesgcm: block too short")
	}
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ c.dec[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ c.dec[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ c.dec[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ c.dec[3]
	// One column of InvSubBytes+InvShiftRows+InvMixColumns.
	round := func(w0, w1, w2, w3 uint32) uint32 {
		x0, x1, x2, x3 := isbox[w0>>24], isbox[w1>>16&0xff], isbox[w2>>8&0xff], isbox[w3&0xff]
		return uint32(mul14[x0]^mul11[x1]^mul13[x2]^mul9[x3])<<24 |
			uint32(mul9[x0]^mul14[x1]^mul11[x2]^mul13[x3])<<16 |
			uint32(mul13[x0]^mul9[x1]^mul14[x2]^mul11[x3])<<8 |
			uint32(mul11[x0]^mul13[x1]^mul9[x2]^mul14[x3])
	}
	for r := 1; r < c.rounds; r++ {
		t0 := round(s0, s3, s2, s1) ^ c.dec[4*r]
		t1 := round(s1, s0, s3, s2) ^ c.dec[4*r+1]
		t2 := round(s2, s1, s0, s3) ^ c.dec[4*r+2]
		t3 := round(s3, s2, s1, s0) ^ c.dec[4*r+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	final := func(w0, w1, w2, w3 uint32) uint32 {
		return uint32(isbox[w0>>24])<<24 | uint32(isbox[w1>>16&0xff])<<16 |
			uint32(isbox[w2>>8&0xff])<<8 | uint32(isbox[w3&0xff])
	}
	r := c.rounds
	binary.BigEndian.PutUint32(dst[0:4], final(s0, s3, s2, s1)^c.dec[4*r])
	binary.BigEndian.PutUint32(dst[4:8], final(s1, s0, s3, s2)^c.dec[4*r+1])
	binary.BigEndian.PutUint32(dst[8:12], final(s2, s1, s0, s3)^c.dec[4*r+2])
	binary.BigEndian.PutUint32(dst[12:16], final(s3, s2, s1, s0)^c.dec[4*r+3])
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C known-answer vectors, for Cipher and the oracle.
func TestAESKnownAnswers(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
	}
	for _, c := range cases {
		cipher, err := NewCipher(unhex(t, c.key))
		if err != nil {
			t.Fatal(err)
		}
		oracle := newTableCipher(unhex(t, c.key))
		want := unhex(t, c.ct)
		got := make([]byte, 16)
		cipher.Encrypt(got, unhex(t, c.pt))
		if !bytes.Equal(got, want) {
			t.Errorf("key %s: enc = %x, want %x", c.key, got, want)
		}
		oracle.Encrypt(got, unhex(t, c.pt))
		if !bytes.Equal(got, want) {
			t.Errorf("key %s: oracle enc = %x, want %x", c.key, got, want)
		}
		back := make([]byte, 16)
		oracle.Decrypt(back, want)
		if want := unhex(t, c.pt); !bytes.Equal(back, want) {
			t.Errorf("key %s: oracle dec = %x, want %x", c.key, back, want)
		}
	}
}

func TestAESInvalidKeySizes(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 31, 33} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted", n)
		}
	}
}

// TestAESMatchesStdlib checks the T-table oracle against crypto/aes, the
// block Cipher wraps.
func TestAESMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ks := range []int{16, 24, 32} {
		key := make([]byte, ks)
		rng.Read(key)
		oracle := newTableCipher(key)
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			pt := make([]byte, 16)
			rng.Read(pt)
			a, b := make([]byte, 16), make([]byte, 16)
			oracle.Encrypt(a, pt)
			ref.Encrypt(b, pt)
			if !bytes.Equal(a, b) {
				t.Fatalf("key=%d enc mismatch: %x vs %x", ks, a, b)
			}
			oracle.Decrypt(a, b)
			if !bytes.Equal(a, pt) {
				t.Fatalf("key=%d dec mismatch", ks)
			}
		}
	}
}

func TestAESEncryptDecryptInverse(t *testing.T) {
	f := func(key [16]byte, pt [16]byte) bool {
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		var ct, back [16]byte
		c.Encrypt(ct[:], pt[:])
		newTableCipher(key[:]).Decrypt(back[:], ct[:])
		return back == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAESInPlace(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	buf := []byte("0123456789abcdef")
	orig := append([]byte(nil), buf...)
	c.Encrypt(buf, buf)
	if bytes.Equal(buf, orig) {
		t.Fatal("in-place encrypt did nothing")
	}
	newTableCipher(make([]byte, 16)).Decrypt(buf, buf)
	if !bytes.Equal(buf, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestAESShortBlockPanics(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	oracle := newTableCipher(make([]byte, 16))
	for _, f := range []func(){
		func() { c.Encrypt(make([]byte, 16), make([]byte, 15)) },
		func() { c.Encrypt(make([]byte, 15), make([]byte, 16)) },
		func() { oracle.Encrypt(make([]byte, 16), make([]byte, 15)) },
		func() { oracle.Decrypt(make([]byte, 16), make([]byte, 15)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on short block")
				}
			}()
			f()
		}()
	}
}

func TestSboxIsPermutationAndInverse(t *testing.T) {
	seen := map[byte]bool{}
	for i := 0; i < 256; i++ {
		v := sbox[i]
		if seen[v] {
			t.Fatalf("sbox not a permutation: duplicate %#x", v)
		}
		seen[v] = true
		if isbox[v] != byte(i) {
			t.Fatalf("isbox[sbox[%d]] = %d", i, isbox[v])
		}
	}
	// FIPS-197 spot values.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Fatalf("sbox spot check failed: %x %x %x", sbox[0x00], sbox[0x53], sbox[0xff])
	}
}

// BenchmarkAESEncryptBlock compares Cipher's crypto/aes block with the
// T-table oracle it replaced.
func BenchmarkAESEncryptBlock(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	for _, bc := range []struct {
		name string
		enc  func(dst, src []byte)
	}{{"cryptoaes", c.Encrypt}, {"ttable", newTableCipher(make([]byte, 16)).Encrypt}} {
		b.Run(bc.name, func(b *testing.B) {
			src := make([]byte, 16)
			dst := make([]byte, 16)
			b.SetBytes(16)
			for i := 0; i < b.N; i++ {
				bc.enc(dst, src)
			}
		})
	}
}
