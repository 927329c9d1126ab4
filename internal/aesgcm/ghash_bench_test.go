package aesgcm

import "testing"

// mulTable is a 16-entry table of x*H for the 4-bit windowed multiply,
// indexed by nibble value. No production path uses it: streaming GHASH
// uses the 8-bit mulTable8 and the power-weighted folds the Karatsuba
// product. It is the ablation baseline the 8-bit table is benchmarked
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

func ghashInput(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + 17)
	}
	return data
}

// BenchmarkGHASHUpdate8bit measures the production GHASH hot loop: the
// 256-entry byte-indexed table with the folded x^8 reduction.
func BenchmarkGHASHUpdate8bit(b *testing.B) {
	h := make([]byte, 16)
	h[3] = 0x5A
	g := NewGHASH(h)
	data := ghashInput(16384)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(data)
	}
}

// BenchmarkGHASHUpdate4bit is the 4-bit windowed path, no longer used in
// production, kept as the ablation baseline the 8-bit table is measured
// against.
func BenchmarkGHASHUpdate4bit(b *testing.B) {
	h := make([]byte, 16)
	h[3] = 0x5A
	t := newMulTable(LoadEl(h))
	data := ghashInput(16384)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var y FieldEl
		for off := 0; off < len(data); off += BlockSize {
			y = t.mul(y.Xor(LoadEl(data[off : off+BlockSize])))
		}
	}
}

// BenchmarkFieldElMul compares the production Karatsuba multiply, used
// for the engine's power-weighted folds, with the bit-serial reference.
func BenchmarkFieldElMul(b *testing.B) {
	h := FieldEl{Hi: 0x66e94bd4ef8a2c3b, Lo: 0x884cfa59ca342b2e}
	for _, bc := range []struct {
		name string
		mul  func(FieldEl, FieldEl) FieldEl
	}{{"karatsuba", FieldEl.Mul}, {"bitserial", FieldEl.mulBitSerial}} {
		b.Run(bc.name, func(b *testing.B) {
			acc := FieldEl{Hi: 0xdeadbeefcafebabe, Lo: 0x0102030405060708}
			for i := 0; i < b.N; i++ {
				acc = bc.mul(acc, h)
			}
			mulSink = acc
		})
	}
}

var mulSink FieldEl

// TestMulTable8MatchesBitSerial cross-checks the 8-bit and 4-bit table
// multiplies and the Karatsuba Mul against the bit-serial reference on
// varied elements.
func TestMulTable8MatchesBitSerial(t *testing.T) {
	h := FieldEl{Hi: 0x66e94bd4ef8a2c3b, Lo: 0x884cfa59ca342b2e}
	tab := newMulTable8(h)
	tab4 := newMulTable(h)
	elems := []FieldEl{
		{},
		{Hi: 1},
		{Lo: 1},
		{Hi: ^uint64(0), Lo: ^uint64(0)},
		{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210},
	}
	x := FieldEl{Hi: 0xdeadbeefcafebabe, Lo: 0x0102030405060708}
	for i := 0; i < 64; i++ {
		elems = append(elems, x)
		x = mulByX(x.Xor(FieldEl{Hi: uint64(i) << 32, Lo: ^uint64(i)}))
	}
	for _, e := range elems {
		want := e.mulBitSerial(h)
		if got := e.Mul(h); got != want {
			t.Fatalf("Mul(%x,%x) = %x,%x want %x,%x", e.Hi, e.Lo, got.Hi, got.Lo, want.Hi, want.Lo)
		}
		if got := tab.mul(e); got != want {
			t.Fatalf("mulTable8.mul(%x,%x) = %x,%x want %x,%x", e.Hi, e.Lo, got.Hi, got.Lo, want.Hi, want.Lo)
		}
		if got4 := tab4.mul(e); got4 != want {
			t.Fatalf("mulTable.mul(%x,%x) = %x,%x want %x,%x", e.Hi, e.Lo, got4.Hi, got4.Lo, want.Hi, want.Lo)
		}
	}
}
