// Package dram models a DDR4 memory subsystem at command granularity:
// the address mapping between physical addresses and DRAM coordinates
// (rank, bank group, bank, row, column), per-bank state machines driven
// by ACT/PRE/rdCAS/wrCAS/REF commands, DDR4-3200 timing parameters, and
// sparse backing storage holding the actual bytes.
//
// The model is the substrate beneath both a plain DIMM and the SmartDIMM
// buffer device (internal/core): SmartDIMM is "solely controlled by read
// and write commands received at the DIMM's buffer device" (§IV-C), so
// everything it does is triggered by the Command values defined here.
package dram

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
)

// CachelineSize is the data moved by one CAS command: a BL8 burst on an
// 8-byte-wide channel.
const CachelineSize = 64

// PageSize is the OS page granularity SmartDIMM registers ranges at.
const PageSize = 4096

// CommandKind enumerates the DDR commands the model distinguishes.
type CommandKind uint8

// DDR command kinds.
const (
	CmdACT CommandKind = iota // activate (RAS): open a row
	CmdPRE                    // precharge: close a bank's row
	CmdRd                     // rdCAS: read burst
	CmdWr                     // wrCAS: write burst
	CmdREF                    // refresh
)

// String returns the DDR mnemonic.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRd:
		return "rdCAS"
	case CmdWr:
		return "wrCAS"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("CMD(%d)", uint8(k))
	}
}

// Command is one decoded DDR command as seen at the DIMM.
type Command struct {
	Kind CommandKind
	Rank int
	BG   int // bank group
	BA   int // bank address within group
	Row  int
	Col  int // column in cacheline units (BL8 bursts)
	// Core identifies the requesting CPU core for tracing, -1 if unknown.
	Core int
}

// Geometry describes one rank's DRAM organisation. Column counts are in
// cacheline (64B) units to match CAS granularity.
type Geometry struct {
	Ranks      int
	BankGroups int
	BanksPerBG int
	Rows       int
	ColsPerRow int // cachelines per row (a 8KB row = 128 cachelines)
}

// SmallGeometry returns a reduced geometry that keeps unit tests and
// short simulations fast while preserving all structural behaviour.
func SmallGeometry() Geometry {
	return Geometry{Ranks: 1, BankGroups: 4, BanksPerBG: 4, Rows: 1024, ColsPerRow: 128}
}

// MediumGeometry returns the 512MB rank every serving run simulates:
// enough DRAM for paper-scale connection counts.
func MediumGeometry() Geometry {
	return Geometry{Ranks: 1, BankGroups: 4, BanksPerBG: 4, Rows: 4096, ColsPerRow: 128}
}

// TotalBanks returns the number of banks across all ranks.
func (g Geometry) TotalBanks() int { return g.Ranks * g.BankGroups * g.BanksPerBG }

// CapacityBytes returns the rank-aggregate capacity.
func (g Geometry) CapacityBytes() uint64 {
	return uint64(g.TotalBanks()) * uint64(g.Rows) * uint64(g.ColsPerRow) * CachelineSize
}

// Timing holds the DDR4 timing parameters the memory controller obeys,
// in DRAM clock cycles, plus the clock period.
type Timing struct {
	TCKps int64 // clock period in picoseconds
	CL    int   // CAS read latency
	CWL   int   // CAS write latency
	TRCD  int   // ACT to CAS
	TRP   int   // PRE to ACT
	TRAS  int   // ACT to PRE
	TCCD  int   // CAS to CAS (same bank group, tCCD_L)
	TBL   int   // burst length in cycles (BL8 on DDR = 4 clock cycles)
	TWR   int   // write recovery
	TRTW  int   // read-to-write turnaround
	TWTR  int   // write-to-read turnaround
}

// DDR4_3200 returns DDR4-3200AA timings (1600MHz clock, 0.625ns tCK).
func DDR4_3200() Timing {
	return Timing{
		TCKps: 625,
		CL:    22, CWL: 16,
		TRCD: 22, TRP: 22, TRAS: 52,
		TCCD: 8, TBL: 4,
		TWR: 24, TRTW: 8, TWTR: 12,
	}
}

// PeakBytesPerSec is one channel's theoretical peak bandwidth: a
// cacheline per burst (BL8 on the 64-bit bus), one burst every TBL
// clocks. For DDR4-3200 that is 64 B / 2.5 ns = 25.6 GB/s, the data
// rate times the bus width.
func (t Timing) PeakBytesPerSec() float64 {
	return CachelineSize * 1e12 / float64(int64(t.TBL)*t.TCKps)
}

// Mapper converts between physical addresses and DRAM coordinates. The
// mapping is open-page friendly (column varies fastest, then bank group
// for CAS-to-CAS parallelism, then bank, rank, row), which is also what
// lets SmartDIMM's Addr Remap module regenerate a physical page number
// from {Row, BG, BA, Col} (§IV-C).
type Mapper struct {
	geo      Geometry
	capacity uint64 // geo.CapacityBytes(), checked on every Decode
	colBits  uint
	bgBits   uint
	baBits   uint
	rankBits uint
}

// NewMapper builds a mapper for the geometry; all dimension sizes must
// be powers of two.
func NewMapper(geo Geometry) (*Mapper, error) {
	for name, v := range map[string]int{
		"ranks": geo.Ranks, "bank groups": geo.BankGroups,
		"banks per group": geo.BanksPerBG, "rows": geo.Rows, "cols": geo.ColsPerRow,
	} {
		if v <= 0 || v&(v-1) != 0 {
			return nil, fmt.Errorf("dram: %s = %d is not a positive power of two", name, v)
		}
	}
	return &Mapper{
		geo:      geo,
		capacity: geo.CapacityBytes(),
		colBits:  uint(bits.TrailingZeros(uint(geo.ColsPerRow))),
		bgBits:   uint(bits.TrailingZeros(uint(geo.BankGroups))),
		baBits:   uint(bits.TrailingZeros(uint(geo.BanksPerBG))),
		rankBits: uint(bits.TrailingZeros(uint(geo.Ranks))),
	}, nil
}

// Geometry returns the mapper's geometry.
func (m *Mapper) Geometry() Geometry { return m.geo }

// Decode converts a physical address to coordinates. The address must be
// within the capacity; the low 6 bits (within-cacheline offset) are
// ignored.
func (m *Mapper) Decode(phys uint64) (Command, error) {
	if phys >= m.capacity {
		return Command{}, fmt.Errorf("dram: address %#x beyond capacity %#x", phys, m.capacity)
	}
	cl := phys >> 6
	col := int(cl & (uint64(m.geo.ColsPerRow) - 1))
	cl >>= m.colBits
	bg := int(cl & (uint64(m.geo.BankGroups) - 1))
	cl >>= m.bgBits
	ba := int(cl & (uint64(m.geo.BanksPerBG) - 1))
	cl >>= m.baBits
	rank := int(cl & (uint64(m.geo.Ranks) - 1))
	cl >>= m.rankBits
	row := int(cl)
	return Command{Rank: rank, BG: bg, BA: ba, Row: row, Col: col}, nil
}

// Encode converts coordinates back to a physical address — the Addr
// Remap operation of SmartDIMM's buffer device.
func (m *Mapper) Encode(rank, bg, ba, row, col int) uint64 {
	cl := uint64(row)
	cl = cl<<m.rankBits | uint64(rank)
	cl = cl<<m.baBits | uint64(ba)
	cl = cl<<m.bgBits | uint64(bg)
	cl = cl<<m.colBits | uint64(col)
	return cl << 6
}

// BankIndex flattens (rank, bg, ba) into a dense bank index, the key of
// SmartDIMM's Bank Table.
func (m *Mapper) BankIndex(rank, bg, ba int) int {
	return (rank*m.geo.BankGroups+bg)*m.geo.BanksPerBG + ba
}

// leafPages is the page count of one leaf of Chips' page table.
const leafPages = 256

// pageLeaf is one leaf of Chips' page table: the backing of leafPages
// consecutive pages, nil for a page never written.
type pageLeaf [leafPages]*[PageSize]byte

// Chips is the DRAM device array of one DIMM: per-bank row state plus
// sparse page-granular backing storage. It enforces the protocol rules
// that matter to the model: CAS commands require the addressed row to be
// open, ACT requires the bank to be precharged.
type Chips struct {
	geo     Geometry
	mapper  *Mapper
	openRow []int32 // per bank: open row id, -1 when precharged
	// leaves is a two-level page table indexed by page number: leaf
	// page/leafPages, slot page%leafPages. A leaf and a page are
	// allocated on their first write; a read of an unwritten page
	// returns zeros.
	leaves []*pageLeaf
	// Stats
	Activations uint64
	Precharges  uint64
	Reads       uint64
	Writes      uint64
}

// NewChips allocates the device array.
func NewChips(geo Geometry) (*Chips, error) {
	m, err := NewMapper(geo)
	if err != nil {
		return nil, err
	}
	pages := (geo.CapacityBytes() + PageSize - 1) / PageSize
	c := &Chips{
		geo:     geo,
		mapper:  m,
		openRow: make([]int32, geo.TotalBanks()),
		leaves:  make([]*pageLeaf, (pages+leafPages-1)/leafPages),
	}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	return c, nil
}

// Mapper returns the address mapper bound to this device's geometry.
func (c *Chips) Mapper() *Mapper { return c.mapper }

// Activate opens a row. Activating an already-active bank is a protocol
// error (the controller must precharge first).
func (c *Chips) Activate(rank, bg, ba, row int) error {
	idx := c.mapper.BankIndex(rank, bg, ba)
	if c.openRow[idx] != -1 {
		return fmt.Errorf("dram: ACT to open bank %d (row %d open)", idx, c.openRow[idx])
	}
	if row < 0 || row >= c.geo.Rows {
		return fmt.Errorf("dram: row %d out of range", row)
	}
	c.openRow[idx] = int32(row)
	c.Activations++
	return nil
}

// Precharge closes a bank; precharging an idle bank is permitted (as
// PREA would be).
func (c *Chips) Precharge(rank, bg, ba int) {
	idx := c.mapper.BankIndex(rank, bg, ba)
	if c.openRow[idx] != -1 {
		c.Precharges++
	}
	c.openRow[idx] = -1
}

// checkOpen validates that a CAS command targets the open row.
func (c *Chips) checkOpen(cmd *Command) error {
	idx := c.mapper.BankIndex(cmd.Rank, cmd.BG, cmd.BA)
	open := c.openRow[idx]
	if open == -1 {
		return fmt.Errorf("dram: CAS to precharged bank %d", idx)
	}
	if int(open) != cmd.Row {
		return fmt.Errorf("dram: CAS row %d but row %d is open in bank %d", cmd.Row, open, idx)
	}
	if cmd.Col < 0 || cmd.Col >= c.geo.ColsPerRow {
		return fmt.Errorf("dram: column %d out of range", cmd.Col)
	}
	return nil
}

// locate returns the backing page and offset of the cacheline at phys,
// allocating the page (and its leaf) when alloc is set; otherwise an
// unwritten page is nil.
func (c *Chips) locate(phys uint64, alloc bool) (*[PageSize]byte, int) {
	page := phys / PageSize
	off := int(phys % PageSize)
	leaf := c.leaves[page/leafPages]
	if leaf == nil {
		if !alloc {
			return nil, off
		}
		leaf = new(pageLeaf)
		c.leaves[page/leafPages] = leaf
	}
	p := leaf[page%leafPages]
	if p == nil && alloc {
		p = new([PageSize]byte)
		leaf[page%leafPages] = p
	}
	return p, off
}

// Read performs the rdCAS burst cmd, returning the 64-byte cacheline.
// phys is the physical address cmd encodes, which the caller has
// already computed.
func (c *Chips) Read(cmd *Command, phys uint64, dst []byte) error {
	if err := c.checkOpen(cmd); err != nil {
		return err
	}
	if len(dst) < CachelineSize {
		return fmt.Errorf("dram: read buffer too small")
	}
	p, off := c.locate(phys, false)
	if p == nil {
		clear(dst[:CachelineSize])
	} else {
		copy(dst, p[off:off+CachelineSize])
	}
	c.Reads++
	return nil
}

// Write performs the wrCAS burst cmd, storing the 64-byte cacheline.
// phys is the physical address cmd encodes, as for Read.
func (c *Chips) Write(cmd *Command, phys uint64, src []byte) error {
	if err := c.checkOpen(cmd); err != nil {
		return err
	}
	if len(src) < CachelineSize {
		return fmt.Errorf("dram: write buffer too small")
	}
	p, off := c.locate(phys, true)
	copy(p[off:off+CachelineSize], src[:CachelineSize])
	c.Writes++
	return nil
}

// Module is the channel-facing interface of a DIMM: the memory
// controller issues decoded commands and receives data and the ALERT_N
// indication. A plain DIMM forwards to the chips; SmartDIMM interposes
// its buffer device logic (internal/core).
type Module interface {
	// HandleCommand processes one command at the given DRAM clock cycle.
	// For CmdRd, data is returned in rdata. For CmdWr, wdata supplies the
	// burst. alert=true models ALERT_N: the controller must retry the
	// command later (§IV-D, S13 in Fig. 6).
	HandleCommand(cycle int64, cmd Command, wdata []byte, rdata []byte) (alert bool, err error)
	// Mapper exposes the module's address mapping.
	Mapper() *Mapper
}

// PlainDIMM is a regular DIMM: commands pass straight through the buffer
// device to the chips.
type PlainDIMM struct {
	chips *Chips
	// Faults, when non-nil, asserts spurious ALERT_N on rdCAS at site
	// "dram.alert" — the DIMM-side transient (CRC/parity on the command
	// bus) the controller's retry path exists for.
	Faults *fault.Injector
}

// NewPlainDIMM builds a pass-through DIMM over fresh chips.
func NewPlainDIMM(geo Geometry) (*PlainDIMM, error) {
	ch, err := NewChips(geo)
	if err != nil {
		return nil, err
	}
	return &PlainDIMM{chips: ch}, nil
}

// Mapper implements Module.
func (d *PlainDIMM) Mapper() *Mapper { return d.chips.mapper }

// phys returns the physical address of a CAS.
func (d *PlainDIMM) phys(cmd *Command) uint64 {
	return d.chips.mapper.Encode(cmd.Rank, cmd.BG, cmd.BA, cmd.Row, cmd.Col)
}

// HandleCommand implements Module.
func (d *PlainDIMM) HandleCommand(cycle int64, cmd Command, wdata []byte, rdata []byte) (bool, error) {
	switch cmd.Kind {
	case CmdACT:
		return false, d.chips.Activate(cmd.Rank, cmd.BG, cmd.BA, cmd.Row)
	case CmdPRE:
		d.chips.Precharge(cmd.Rank, cmd.BG, cmd.BA)
		return false, nil
	case CmdRd:
		if d.Faults.Fire("dram.alert", cycle) {
			return true, nil
		}
		return false, d.chips.Read(&cmd, d.phys(&cmd), rdata)
	case CmdWr:
		return false, d.chips.Write(&cmd, d.phys(&cmd), wdata)
	case CmdREF:
		return false, nil
	default:
		return false, fmt.Errorf("dram: unknown command %v", cmd.Kind)
	}
}
