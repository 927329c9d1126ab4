package aesgcm

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// FieldEl is an element of GF(2^128) in the GCM bit ordering (the first
// byte of the block holds the polynomial's lowest-degree coefficients in
// its most significant bit).
type FieldEl struct {
	Hi, Lo uint64 // Hi holds bytes 0..7 of the block, big-endian
}

// LoadEl reads a 16-byte block as a field element.
func LoadEl(b []byte) FieldEl {
	return FieldEl{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// Store writes the field element into a 16-byte block.
func (e FieldEl) Store(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], e.Hi)
	binary.BigEndian.PutUint64(b[8:16], e.Lo)
}

// Xor returns e ^ o (field addition).
func (e FieldEl) Xor(o FieldEl) FieldEl {
	return FieldEl{Hi: e.Hi ^ o.Hi, Lo: e.Lo ^ o.Lo}
}

// IsZero reports whether the element is the additive identity.
func (e FieldEl) IsZero() bool { return e.Hi == 0 && e.Lo == 0 }

// gcmR is the reduction constant for GF(2^128) with GCM's polynomial
// x^128 + x^7 + x^2 + x + 1 in the shifted representation.
const gcmR = 0xe100000000000000

// Mul returns the GF(2^128) product e*o under the GCM conventions. It is
// the constant-time carry-less Karatsuba multiply of BearSSL's
// ghash_ctmul64: three 64x64 carry-less products for the low halves,
// three more on the bit-reversed operands for the high halves, then a
// shift-and-reduce modulo x^128 + x^7 + x^2 + x + 1. The power-weighted
// GHASH folds of the cacheline engine and the H-power chains use it;
// mulBitSerial is the bit-at-a-time reference it is tested against.
func (e FieldEl) Mul(o FieldEl) FieldEl {
	// The GCM representation is bit-reflected: Lo's least significant
	// bit is the x^127 coefficient, Hi's most significant bit is x^0.
	y1, y0 := e.Hi, e.Lo
	h1, h0 := o.Hi, o.Lo
	y1r, y0r := bits.Reverse64(y1), bits.Reverse64(y0)
	h1r, h0r := bits.Reverse64(h1), bits.Reverse64(h0)

	z0 := bmul64(y0, h0)
	z1 := bmul64(y1, h1)
	z2 := bmul64(y0^y1, h0^h1)
	z0h := bmul64(y0r, h0r)
	z1h := bmul64(y1r, h1r)
	z2h := bmul64(y0r^y1r, h0r^h1r)
	z2 ^= z0 ^ z1
	z2h ^= z0h ^ z1h
	z0h = bits.Reverse64(z0h) >> 1
	z1h = bits.Reverse64(z1h) >> 1
	z2h = bits.Reverse64(z2h) >> 1

	// The 256-bit product v3:v2:v1:v0, shifted left by one to undo the
	// reflection's off-by-one, then reduced into v3:v2.
	v0, v1, v2, v3 := z0, z0h^z2, z1^z2h, z1h
	v3 = v3<<1 | v2>>63
	v2 = v2<<1 | v1>>63
	v1 = v1<<1 | v0>>63
	v0 <<= 1
	v2 ^= v0 ^ v0>>1 ^ v0>>2 ^ v0>>7
	v1 ^= v0<<63 ^ v0<<62 ^ v0<<57
	v3 ^= v1 ^ v1>>1 ^ v1>>2 ^ v1>>7
	v2 ^= v1<<63 ^ v1<<62 ^ v1<<57
	return FieldEl{Hi: v3, Lo: v2}
}

// bmul64 returns the low 64 bits of the carry-less product x*y using
// integer multiplies on operands masked to every fourth bit: the 4-bit
// holes absorb the carries (at most 15 per position below bit 64), so
// masking each partial product back to its bit class leaves the XOR sum.
func bmul64(x, y uint64) uint64 {
	const m0, m1, m2, m3 = 0x1111111111111111, 0x2222222222222222, 0x4444444444444444, 0x8888888888888888
	x0, x1, x2, x3 := x&m0, x&m1, x&m2, x&m3
	y0, y1, y2, y3 := y&m0, y&m1, y&m2, y&m3
	z0 := x0*y0 ^ x1*y3 ^ x2*y2 ^ x3*y1
	z1 := x0*y1 ^ x1*y0 ^ x2*y3 ^ x3*y2
	z2 := x0*y2 ^ x1*y1 ^ x2*y0 ^ x3*y3
	z3 := x0*y3 ^ x1*y2 ^ x2*y1 ^ x3*y0
	return z0&m0 | z1&m1 | z2&m2 | z3&m3
}

// mulTable is a 16-entry table of x*H for the 4-bit windowed multiply,
// indexed by nibble value. Neither production path uses it: streaming
// GHASH uses the 8-bit mulTable8 and the power-weighted folds use Mul.
// It stays as the ablation baseline the 8-bit table is benchmarked
// against.
type mulTable [16]FieldEl

func newMulTable(h FieldEl) *mulTable {
	var t mulTable
	// t[i] = i(h) where the 4-bit index is interpreted in the GCM bit
	// order: index bit 3 (MSB of the nibble) is the lowest-degree term.
	t[8] = h // 0b1000: coefficient of x^0 within the nibble
	for i := 4; i > 0; i >>= 1 {
		t[i] = mulByX(t[i*2])
	}
	for i := 2; i < 16; i *= 2 {
		for j := 1; j < i; j++ {
			t[i+j] = t[i].Xor(t[j])
		}
	}
	return &t
}

// mulByX multiplies by the field element x (a one-bit right shift in the
// GCM representation, with reduction).
func mulByX(v FieldEl) FieldEl {
	lsb := v.Lo & 1
	v.Lo = v.Lo>>1 | v.Hi<<63
	v.Hi >>= 1
	if lsb == 1 {
		v.Hi ^= gcmR
	}
	return v
}

// mul multiplies y by the table's hash subkey using a 4-bit-windowed
// Horner evaluation. In the GCM representation the LSB end of Lo holds
// the highest-degree coefficients, so walking low nibbles first visits
// terms in descending degree, exactly what Horner needs.
func (t *mulTable) mul(y FieldEl) FieldEl {
	var z FieldEl
	process := func(word uint64) {
		for i := 0; i < 16; i++ {
			nib := word & 0xf
			word >>= 4
			// z = z * x^4, then add this nibble's contribution.
			z = mulByX(mulByX(mulByX(mulByX(z))))
			z = z.Xor(t[nib])
		}
	}
	process(y.Lo)
	process(y.Hi)
	return z
}

// mulTable8 is the 256-entry byte-indexed multiplication table, the
// production path for streaming GHASH (GCM.Seal/Open): one subkey
// multiplies every block, so the per-subkey table build pays off. It has
// the same Horner structure as mulTable, but consumes a whole byte per
// step so a block costs 16 table folds instead of 32 nibble folds. Index
// bit 7 (the byte's MSB) is the lowest-degree term, matching the GCM bit
// order of the 4-bit table.
type mulTable8 [256]FieldEl

func newMulTable8(h FieldEl) *mulTable8 {
	var t mulTable8
	t[0x80] = h // 0b1000_0000: coefficient of x^0 within the byte
	for i := 0x40; i > 0; i >>= 1 {
		t[i] = mulByX(t[i*2])
	}
	for i := 2; i < 256; i *= 2 {
		for j := 1; j < i; j++ {
			t[i+j] = t[i].Xor(t[j])
		}
	}
	return &t
}

// reduce8 folds the 8 bits shifted out of a field element during a
// combined z*x^8 step back into the high word: entry b is the XOR of
// gcmR >> (7-i) for every set bit i, the net effect of the eight
// bit-serial reductions mulByX would perform one at a time.
var reduce8 [256]uint64

func init() {
	for b := 0; b < 256; b++ {
		var r uint64
		for i := 0; i < 8; i++ {
			if b>>i&1 == 1 {
				r ^= gcmR >> (7 - i)
			}
		}
		reduce8[b] = r
	}
}

// mul multiplies y by the hash subkey via byte-wise Horner: z = z*x^8
// (one shift plus a table-folded reduction) then one 256-entry fold per
// byte, low bytes first (they hold the highest-degree coefficients).
func (t *mulTable8) mul(y FieldEl) FieldEl {
	var z FieldEl
	word := y.Lo
	for i := 0; i < 16; i++ {
		if i == 8 {
			word = y.Hi
		}
		b := word & 0xff
		word >>= 8
		rb := z.Lo & 0xff
		z.Lo = z.Lo>>8 | z.Hi<<56
		z.Hi = z.Hi>>8 ^ reduce8[rb]
		e := &t[b]
		z.Hi ^= e.Hi
		z.Lo ^= e.Lo
	}
	return z
}

// GHASH computes the GHASH function of SP 800-38D over the given blocks
// with hash subkey h. Data is processed in 16-byte blocks; a short final
// block is zero-padded (callers compose AAD/ciphertext/length blocks).
type GHASH struct {
	table *mulTable8
	y     FieldEl
}

// NewGHASH creates a GHASH instance keyed by the 16-byte hash subkey.
// The 256-entry table build is a per-subkey cost; key it once and reuse
// (GCM caches it per key).
func NewGHASH(h []byte) *GHASH {
	return &GHASH{table: newMulTable8(LoadEl(h))}
}

// Update absorbs data, zero-padding the final short block if any.
func (g *GHASH) Update(data []byte) {
	for len(data) >= BlockSize {
		g.y = g.table.mul(g.y.Xor(LoadEl(data[:BlockSize])))
		data = data[BlockSize:]
	}
	if len(data) > 0 {
		var block [BlockSize]byte
		copy(block[:], data)
		g.y = g.table.mul(g.y.Xor(LoadEl(block[:])))
	}
}

// UpdateLengths absorbs the standard GCM length block (bit lengths of AAD
// and ciphertext).
func (g *GHASH) UpdateLengths(aadBytes, ctBytes int) {
	var block [BlockSize]byte
	binary.BigEndian.PutUint64(block[0:8], uint64(aadBytes)*8)
	binary.BigEndian.PutUint64(block[8:16], uint64(ctBytes)*8)
	g.Update(block[:])
}

// Sum writes the current GHASH value into a 16-byte slice and returns it.
func (g *GHASH) Sum(dst []byte) []byte {
	if len(dst) < BlockSize {
		panic("aesgcm: ghash sum buffer too short")
	}
	g.y.Store(dst[:BlockSize])
	return dst[:BlockSize]
}

// Reset restores the initial state, keeping the subkey.
func (g *GHASH) Reset() { g.y = FieldEl{} }

// HPowers precomputes powers of the hash subkey H. The paper's TLS DSA
// computes the i-th powers of H "in strides of 4" as soon as the source
// buffer is registered, so the GHASH contributions of different 64-byte
// cachelines (4 AES blocks each) have no dependency chain (§V-A). Powers
// are 1-indexed: Power(i) == H^i.
type HPowers struct {
	h      FieldEl
	powers []FieldEl // powers[i] = H^(i+1)
}

// Stride is the number of AES blocks per 64-byte cacheline; powers are
// generated stride-first to model the hardware's four parallel chains.
const Stride = 4

// NewHPowers precomputes n powers of the subkey. The recurrence models
// the DSA: four independent multiplication chains, one per block lane,
// each advancing by H^4 per step.
func NewHPowers(h []byte, n int) *HPowers {
	hp := &HPowers{h: LoadEl(h)}
	hp.grow(n)
	return hp
}

// grow extends the table to at least n powers along the same recurrence:
// H^1..H^4 serially, then H^i = H^(i-4) * H^4. Each entry depends only on
// entries already present, so a table extended later holds exactly what
// a table built at the larger size would.
func (p *HPowers) grow(n int) {
	if n > len(p.powers) {
		p.powers = slices.Grow(p.powers, n-len(p.powers))
	}
	for i := len(p.powers); i < n; i++ {
		var next FieldEl
		switch {
		case i == 0:
			next = p.h
		case i < Stride:
			next = p.powers[i-1].Mul(p.h)
		default:
			next = p.powers[i-Stride].Mul(p.powers[Stride-1])
		}
		p.powers = append(p.powers, next)
	}
}

// Power returns H^i (1-indexed). It panics if i is out of the
// precomputed range, mirroring the fixed-size Config Memory region that
// holds the powers in hardware.
func (p *HPowers) Power(i int) FieldEl {
	if i < 1 || i > len(p.powers) {
		panic("aesgcm: H power out of precomputed range")
	}
	return p.powers[i-1]
}

// Count returns how many powers were precomputed.
func (p *HPowers) Count() int { return len(p.powers) }
