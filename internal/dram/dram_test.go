package dram

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// ddr4Geometry16GB is the testbed's 16GB DIMM: 2 ranks x 4 bank groups
// x 4 banks x 64K rows x 128 columns (8KB rows) x 64B = 16GB.
var ddr4Geometry16GB = Geometry{Ranks: 2, BankGroups: 4, BanksPerBG: 4, Rows: 65536, ColsPerRow: 128}

func TestMapperRoundTrip(t *testing.T) {
	for _, geo := range []Geometry{SmallGeometry(), ddr4Geometry16GB} {
		m, err := NewMapper(geo)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			phys := (rng.Uint64() % geo.CapacityBytes()) &^ 63
			cmd, err := m.Decode(phys)
			if err != nil {
				t.Fatal(err)
			}
			back := m.Encode(cmd.Rank, cmd.BG, cmd.BA, cmd.Row, cmd.Col)
			if back != phys {
				t.Fatalf("round trip %#x -> %+v -> %#x", phys, cmd, back)
			}
		}
	}
}

func TestMapperDecodeBounds(t *testing.T) {
	m, _ := NewMapper(SmallGeometry())
	if _, err := m.Decode(SmallGeometry().CapacityBytes()); err == nil {
		t.Fatal("out-of-capacity address accepted")
	}
	cmd, err := m.Decode(0)
	if err != nil || cmd.Row != 0 || cmd.Col != 0 || cmd.BG != 0 {
		t.Fatalf("decode(0) = %+v, %v", cmd, err)
	}
}

func TestMapperConsecutiveCachelinesSpreadColumnsFirst(t *testing.T) {
	// Open-page friendliness: consecutive cachelines walk columns of the
	// same row before switching banks.
	m, _ := NewMapper(SmallGeometry())
	a, _ := m.Decode(0)
	b, _ := m.Decode(64)
	if a.Row != b.Row || a.BG != b.BG || a.BA != b.BA || b.Col != a.Col+1 {
		t.Fatalf("cacheline+1 should stay in row: %+v vs %+v", a, b)
	}
}

func TestMapperRejectsNonPowerOfTwo(t *testing.T) {
	bad := Geometry{Ranks: 3, BankGroups: 4, BanksPerBG: 4, Rows: 1024, ColsPerRow: 128}
	if _, err := NewMapper(bad); err == nil {
		t.Fatal("non-power-of-two geometry accepted")
	}
}

func TestBankIndexDense(t *testing.T) {
	geo := SmallGeometry()
	m, _ := NewMapper(geo)
	seen := map[int]bool{}
	for r := 0; r < geo.Ranks; r++ {
		for bg := 0; bg < geo.BankGroups; bg++ {
			for ba := 0; ba < geo.BanksPerBG; ba++ {
				idx := m.BankIndex(r, bg, ba)
				if idx < 0 || idx >= geo.TotalBanks() || seen[idx] {
					t.Fatalf("bank index %d invalid or duplicate", idx)
				}
				seen[idx] = true
			}
		}
	}
}

// casAt returns the physical address a CAS encodes, which Chips.Read
// and Chips.Write take from their caller.
func casAt(ch *Chips, cmd *Command) uint64 {
	return ch.mapper.Encode(cmd.Rank, cmd.BG, cmd.BA, cmd.Row, cmd.Col)
}

func TestChipsProtocolRules(t *testing.T) {
	ch, err := NewChips(SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	cmd := Command{Kind: CmdRd, Rank: 0, BG: 1, BA: 2, Row: 5, Col: 3}
	buf := make([]byte, CachelineSize)

	// CAS to precharged bank fails.
	if err := ch.Read(&cmd, casAt(ch, &cmd), buf); err == nil {
		t.Fatal("read from precharged bank accepted")
	}
	if err := ch.Activate(0, 1, 2, 5); err != nil {
		t.Fatal(err)
	}
	// Double activate fails.
	if err := ch.Activate(0, 1, 2, 6); err == nil {
		t.Fatal("double activate accepted")
	}
	// Wrong-row CAS fails.
	wrong := cmd
	wrong.Row = 6
	if err := ch.Read(&wrong, casAt(ch, &wrong), buf); err == nil {
		t.Fatal("CAS to non-open row accepted")
	}
	// Correct CAS succeeds.
	if err := ch.Read(&cmd, casAt(ch, &cmd), buf); err != nil {
		t.Fatal(err)
	}
	// Precharge then re-activate another row.
	ch.Precharge(0, 1, 2)
	if ch.openRow[ch.mapper.BankIndex(0, 1, 2)] != -1 {
		t.Fatal("precharge did not close row")
	}
	if err := ch.Activate(0, 1, 2, 6); err != nil {
		t.Fatal(err)
	}
	if ch.Activations != 2 || ch.Precharges != 1 || ch.Reads != 1 {
		t.Fatalf("stats: %d %d %d", ch.Activations, ch.Precharges, ch.Reads)
	}
}

func TestChipsDataPersistence(t *testing.T) {
	ch, _ := NewChips(SmallGeometry())
	cmd := Command{Rank: 0, BG: 0, BA: 0, Row: 1, Col: 0}
	ch.Activate(0, 0, 0, 1)

	want := bytes.Repeat([]byte{0xAB}, CachelineSize)
	w := cmd
	w.Kind = CmdWr
	if err := ch.Write(&w, casAt(ch, &w), want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, CachelineSize)
	r := cmd
	r.Kind = CmdRd
	if err := ch.Read(&r, casAt(ch, &r), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read did not return written data")
	}
	// Unwritten locations read as zero.
	r2 := r
	r2.Col = 5
	if err := ch.Read(&r2, casAt(ch, &r2), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, CachelineSize)) {
		t.Fatal("unwritten cacheline not zero")
	}
}

// TestChipsPageTable checks the edges of the page table: a read of a
// never-written page returns zeros and allocates nothing, not even a
// leaf, and the last line below capacity, in the last slot of the last
// leaf, round-trips alone.
func TestChipsPageTable(t *testing.T) {
	for _, geo := range []Geometry{SmallGeometry(), MediumGeometry()} {
		ch, err := NewChips(geo)
		if err != nil {
			t.Fatal(err)
		}
		// open activates the row of phys and returns its CAS of kind.
		open := func(phys uint64, kind CommandKind) Command {
			t.Helper()
			cmd, err := ch.Mapper().Decode(phys)
			if err != nil {
				t.Fatal(err)
			}
			ch.Precharge(cmd.Rank, cmd.BG, cmd.BA)
			if err := ch.Activate(cmd.Rank, cmd.BG, cmd.BA, cmd.Row); err != nil {
				t.Fatal(err)
			}
			cmd.Kind = kind
			return cmd
		}
		leaves := func() (n int) {
			for _, l := range ch.leaves {
				if l != nil {
					n++
				}
			}
			return n
		}
		zero := make([]byte, CachelineSize)
		got := bytes.Repeat([]byte{0xFF}, CachelineSize)
		last := geo.CapacityBytes() - CachelineSize
		rd := open(last, CmdRd)
		if allocs := testing.AllocsPerRun(10, func() {
			if err := ch.Read(&rd, last, got); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 || leaves() != 0 {
			t.Fatalf("%+v: unwritten read made %v allocs/op and %d leaves, want 0 and 0", geo, allocs, leaves())
		}
		if !bytes.Equal(got, zero) {
			t.Fatalf("%+v: unwritten last line not zero", geo)
		}

		want := bytes.Repeat([]byte{0xC3}, CachelineSize)
		wr := open(last, CmdWr)
		if err := ch.Write(&wr, last, want); err != nil {
			t.Fatal(err)
		}
		if rd = open(last, CmdRd); ch.Read(&rd, last, got) != nil || !bytes.Equal(got, want) {
			t.Fatalf("%+v: last line below capacity did not round-trip", geo)
		}
		if leaves() != 1 || ch.leaves[len(ch.leaves)-1] == nil {
			t.Fatalf("%+v: write of the last line made %d leaves, want only the last", geo, leaves())
		}
		// The page before it shares the leaf but is still unwritten, and
		// page 0 is untouched.
		for _, phys := range []uint64{last - PageSize, 0} {
			rd = open(phys, CmdRd)
			if err := ch.Read(&rd, phys, got); err != nil || !bytes.Equal(got, zero) {
				t.Fatalf("%+v: unwritten line %#x not zero: %v", geo, phys, err)
			}
		}
	}
}

func TestPlainDIMMPassThrough(t *testing.T) {
	d, err := NewPlainDIMM(SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, CachelineSize)
	rdata := make([]byte, CachelineSize)

	act := Command{Kind: CmdACT, Row: 3}
	if alert, err := d.HandleCommand(0, act, nil, nil); err != nil || alert {
		t.Fatalf("ACT: alert=%v err=%v", alert, err)
	}
	wr := Command{Kind: CmdWr, Row: 3, Col: 2}
	if _, err := d.HandleCommand(1, wr, data, nil); err != nil {
		t.Fatal(err)
	}
	rd := Command{Kind: CmdRd, Row: 3, Col: 2}
	if alert, err := d.HandleCommand(2, rd, nil, rdata); err != nil || alert {
		t.Fatalf("read: alert=%v err=%v", alert, err)
	}
	if !bytes.Equal(rdata, data) {
		t.Fatal("plain DIMM data mismatch")
	}
	pre := Command{Kind: CmdPRE}
	if _, err := d.HandleCommand(3, pre, nil, nil); err != nil {
		t.Fatal(err)
	}
	ref := Command{Kind: CmdREF}
	if _, err := d.HandleCommand(4, ref, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryCapacity(t *testing.T) {
	if got := ddr4Geometry16GB.CapacityBytes(); got != 16<<30 {
		t.Fatalf("16GB geometry = %d bytes", got)
	}
	if got := SmallGeometry().CapacityBytes(); got != uint64(16)*1024*128*64 {
		t.Fatalf("small geometry = %d bytes", got)
	}
}

func TestCommandKindString(t *testing.T) {
	want := map[CommandKind]string{CmdACT: "ACT", CmdPRE: "PRE", CmdRd: "rdCAS", CmdWr: "wrCAS", CmdREF: "REF"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d: %q != %q", k, k.String(), s)
		}
	}
}

func TestTimingDefaults(t *testing.T) {
	tm := DDR4_3200()
	if tm.TCKps != 625 || tm.CL != 22 {
		t.Fatalf("unexpected DDR4-3200 timings: %+v", tm)
	}
	// Sanity: read latency ~13.75ns.
	if ns := float64(tm.CL) * float64(tm.TCKps) / 1000; ns < 10 || ns > 20 {
		t.Fatalf("CL latency %v ns implausible", ns)
	}
}

// Property: Encode is injective over coordinates within geometry.
func TestEncodeInjectiveQuick(t *testing.T) {
	geo := SmallGeometry()
	m, _ := NewMapper(geo)
	f := func(a, b [5]uint16) bool {
		norm := func(v [5]uint16) (int, int, int, int, int) {
			return int(v[0]) % geo.Ranks, int(v[1]) % geo.BankGroups,
				int(v[2]) % geo.BanksPerBG, int(v[3]) % geo.Rows, int(v[4]) % geo.ColsPerRow
		}
		r1, g1, b1, ro1, c1 := norm(a)
		r2, g2, b2, ro2, c2 := norm(b)
		same := r1 == r2 && g1 == g2 && b1 == b2 && ro1 == ro2 && c1 == c2
		e1 := m.Encode(r1, g1, b1, ro1, c1)
		e2 := m.Encode(r2, g2, b2, ro2, c2)
		return (e1 == e2) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChipsReadWrite(b *testing.B) {
	ch, _ := NewChips(SmallGeometry())
	ch.Activate(0, 0, 0, 0)
	buf := make([]byte, CachelineSize)
	w := Command{Kind: CmdWr, Row: 0}
	r := Command{Kind: CmdRd, Row: 0}
	b.SetBytes(2 * CachelineSize)
	for i := 0; i < b.N; i++ {
		col := i % 128
		w.Col, r.Col = col, col
		ch.Write(&w, casAt(ch, &w), buf)
		ch.Read(&r, casAt(ch, &r), buf)
	}
}

// The channel peak the bandwidth meters report against is derived from
// the timing, and for DDR4-3200 it is the data rate times the bus width:
// 3200 MT/s x 8 B = 25.6 GB/s, the peak that "A Benchmarking Platform
// for DDR4 Memory Performance in Data-Center-Class FPGAs" measures
// against. The derivation is exact in float64.
func TestDDR4PeakBandwidth(t *testing.T) {
	if got, want := DDR4_3200().PeakBytesPerSec(), 3200e6*8.0; got != want || got != 25.6e9 {
		t.Fatalf("DDR4-3200 peak = %v B/s, want %v", got, want)
	}
}
