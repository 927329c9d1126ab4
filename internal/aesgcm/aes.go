// Package aesgcm is a from-scratch implementation of AES (128/192/256)
// and the Galois/Counter Mode of operation, structured the way
// SmartDIMM's TLS DSA computes it (§V-A of the paper):
//
//   - the CTR keystream is randomly accessible, so any 64-byte cacheline
//     of a TLS record can be (de/en)crypted independently and out of
//     order as rdCAS commands arrive at the DIMM (Observation 4:
//     incremental computability);
//   - GHASH powers of the hash subkey H are precomputed in strides of 4
//     to break the dependency chain between the GHASH contributions of
//     different cachelines (Fig. 7);
//   - the hash subkey H and the encrypted initialization vector EIV are
//     computed by the *caller* (the CPU side, one AES-NI instruction in
//     the paper) and handed to the engine through its config, mirroring
//     the CPU/DIMM split.
//
// Functional correctness is validated in the tests against NIST SP
// 800-38D vectors and cross-checked against crypto/cipher's GCM on
// random inputs.
package aesgcm

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox and inverse sbox are generated at init from the GF(2^8) inverse
// plus the AES affine transform, rather than hardcoded, to keep the
// implementation auditable.
var (
	sbox  [256]byte
	isbox [256]byte

	// Precomputed GF(2^8) constant-multiplication tables for the
	// MixColumns (x2, x3) and InvMixColumns (x9, x11, x13, x14) matrices.
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
	// Build GF(2^8) inverses by brute force (256*256 is trivial), then
	// apply the affine transform.
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gf8Mul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	for i := 0; i < 256; i++ {
		x := inv[i]
		// Affine: b_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i
		y := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = y
		isbox[y] = byte(i)
	}
	for i := 0; i < 256; i++ {
		b := byte(i)
		mul2[i] = gf8Mul(b, 2)
		mul3[i] = gf8Mul(b, 3)
		mul9[i] = gf8Mul(b, 9)
		mul11[i] = gf8Mul(b, 11)
		mul13[i] = gf8Mul(b, 13)
		mul14[i] = gf8Mul(b, 14)
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

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

// Cipher is an AES block cipher with an expanded key schedule.
type Cipher struct {
	enc    []uint32 // round keys for encryption
	dec    []uint32 // round keys for decryption (equivalent inverse cipher)
	rounds int
}

// NewCipher expands key (16, 24, or 32 bytes) into a Cipher.
func NewCipher(key []byte) (*Cipher, error) {
	switch len(key) {
	case 16, 24, 32:
	default:
		return nil, fmt.Errorf("aesgcm: invalid key size %d", len(key))
	}
	nk := len(key) / 4
	rounds := nk + 6
	c := &Cipher{rounds: rounds}
	n := 4 * (rounds + 1)
	c.enc = make([]uint32, n)
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := nk; i < n; i++ {
		t := c.enc[i-1]
		if i%nk == 0 {
			t = subWord(rotWord(t)) ^ (rcon << 24)
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
				w = invMixColumnsWord(w)
			}
			c.dec[4*i+j] = w
		}
	}
	return c, nil
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

func invMixColumnsWord(w uint32) uint32 {
	b0, b1, b2, b3 := w>>24, w>>16&0xff, w>>8&0xff, w&0xff
	return uint32(mul14[b0]^mul11[b1]^mul13[b2]^mul9[b3])<<24 |
		uint32(mul9[b0]^mul14[b1]^mul11[b2]^mul13[b3])<<16 |
		uint32(mul13[b0]^mul9[b1]^mul14[b2]^mul11[b3])<<8 |
		uint32(mul11[b0]^mul13[b1]^mul9[b2]^mul14[b3])
}

// Encrypt encrypts one 16-byte block from src into dst (may alias).
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesgcm: block too short")
	}
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ c.enc[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ c.enc[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ c.enc[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ c.enc[3]
	for r := 1; r < c.rounds; r++ {
		t0 := encRound(s0, s1, s2, s3) ^ c.enc[4*r]
		t1 := encRound(s1, s2, s3, s0) ^ c.enc[4*r+1]
		t2 := encRound(s2, s3, s0, s1) ^ c.enc[4*r+2]
		t3 := encRound(s3, s0, s1, s2) ^ c.enc[4*r+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// Final round: SubBytes + ShiftRows, no MixColumns.
	r := c.rounds
	t0 := finalRound(s0, s1, s2, s3) ^ c.enc[4*r]
	t1 := finalRound(s1, s2, s3, s0) ^ c.enc[4*r+1]
	t2 := finalRound(s2, s3, s0, s1) ^ c.enc[4*r+2]
	t3 := finalRound(s3, s0, s1, s2) ^ c.enc[4*r+3]
	binary.BigEndian.PutUint32(dst[0:4], t0)
	binary.BigEndian.PutUint32(dst[4:8], t1)
	binary.BigEndian.PutUint32(dst[8:12], t2)
	binary.BigEndian.PutUint32(dst[12:16], t3)
}

// encRound computes one column of SubBytes+ShiftRows+MixColumns for the
// state columns (a,b,c,d) where a supplies the top byte.
func encRound(a, b, c, d uint32) uint32 {
	return te0[a>>24] ^ te1[b>>16&0xff] ^ te2[c>>8&0xff] ^ te3[d&0xff]
}

func finalRound(a, b, c, d uint32) uint32 {
	return uint32(sbox[a>>24])<<24 | uint32(sbox[b>>16&0xff])<<16 |
		uint32(sbox[c>>8&0xff])<<8 | uint32(sbox[d&0xff])
}

// Decrypt decrypts one 16-byte block from src into dst (may alias).
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesgcm: block too short")
	}
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ c.dec[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ c.dec[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ c.dec[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ c.dec[3]
	for r := 1; r < c.rounds; r++ {
		t0 := decRound(s0, s3, s2, s1) ^ c.dec[4*r]
		t1 := decRound(s1, s0, s3, s2) ^ c.dec[4*r+1]
		t2 := decRound(s2, s1, s0, s3) ^ c.dec[4*r+2]
		t3 := decRound(s3, s2, s1, s0) ^ c.dec[4*r+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	r := c.rounds
	t0 := invFinalRound(s0, s3, s2, s1) ^ c.dec[4*r]
	t1 := invFinalRound(s1, s0, s3, s2) ^ c.dec[4*r+1]
	t2 := invFinalRound(s2, s1, s0, s3) ^ c.dec[4*r+2]
	t3 := invFinalRound(s3, s2, s1, s0) ^ c.dec[4*r+3]
	binary.BigEndian.PutUint32(dst[0:4], t0)
	binary.BigEndian.PutUint32(dst[4:8], t1)
	binary.BigEndian.PutUint32(dst[8:12], t2)
	binary.BigEndian.PutUint32(dst[12:16], t3)
}

// decRound computes one column of InvSubBytes+InvShiftRows+InvMixColumns
// for the equivalent inverse cipher.
func decRound(a, b, c, d uint32) uint32 {
	x0 := isbox[a>>24]
	x1 := isbox[b>>16&0xff]
	x2 := isbox[c>>8&0xff]
	x3 := isbox[d&0xff]
	return uint32(mul14[x0]^mul11[x1]^mul13[x2]^mul9[x3])<<24 |
		uint32(mul9[x0]^mul14[x1]^mul11[x2]^mul13[x3])<<16 |
		uint32(mul13[x0]^mul9[x1]^mul14[x2]^mul11[x3])<<8 |
		uint32(mul11[x0]^mul13[x1]^mul9[x2]^mul14[x3])
}

func invFinalRound(a, b, c, d uint32) uint32 {
	return uint32(isbox[a>>24])<<24 | uint32(isbox[b>>16&0xff])<<16 |
		uint32(isbox[c>>8&0xff])<<8 | uint32(isbox[d&0xff])
}
