package aesgcm

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// CachelineSize is the unit the DSA processes: one DDR burst, four AES
// blocks.
const CachelineSize = 64

// Direction selects encryption or decryption for a record engine.
type Direction int

// Engine directions.
const (
	Encrypt Direction = iota
	Decrypt
)

// RecordConfig is the per-source-page context the CPU writes into
// SmartDIMM's Config Memory when registering a TLS offload (§V-A): the
// AES key (for the CTR pipeline), the record IV, the CPU-computed hash
// subkey H and encrypted initial counter EIV, the record's AAD, and its
// total payload length. The paper sizes this context at 1KB per source
// page, dominated by the precomputed powers of H.
type RecordConfig struct {
	Key    []byte
	IV     []byte // 96-bit TLS record nonce
	H      []byte // E_K(0^128), computed on the CPU
	EIV    []byte // E_K(J0), computed on the CPU
	AAD    []byte // TLS record header (may be empty)
	Length int    // plaintext/ciphertext length in bytes
}

// configBytes returns the Config Memory footprint of this record's
// context as laid out in hardware: the key, IV, EIV and AAD, an 8-byte
// header (direction, field lengths, payload length), and Stride+1 hash
// blocks: the four lane heads H^1..H^4 plus the lane multiplier H^4.
// One stored power per ciphertext block would need 256 x 16 B = 4 KB for
// a 4 KB page, four times the ~1 KB per source page the paper budgets;
// the DSA instead multiplies each lane forward by H^4 as cachelines
// arrive, the recurrence NewHPowers models.
func (c *RecordConfig) configBytes() int {
	return len(c.Key) + len(c.IV) + len(c.EIV) + len(c.AAD) + (Stride+1)*BlockSize + 8
}

// CachelineEngine is the functional model of the TLS DSA datapath of
// Fig. 7. It (de/en)crypts 64-byte cachelines of a single TLS record in
// any order, folding each cacheline's GHASH contribution into a partial
// tag using precomputed powers of H, exactly as the hardware does when
// rdCAS commands arrive out of order. An engine serves one registered
// record at a time, and Reset re-keys it for the next; the only state
// records share is the read-mostly KeySchedule.
//
// The engine has two halves, as the device does: Claim is the arbiter's
// bookkeeping (the line's range and its processed bit) and the only
// half that can fail; Transform is the datapath (keystream, XOR, GHASH
// fold) and cannot. A claimed line may be transformed later and on
// another goroutine, provided the claims happen before it.
type CachelineEngine struct {
	dir    Direction
	cipher *Cipher
	eiv    [BlockSize]byte
	// powers is the schedule's table as Reset left it: a later record
	// that grows the schedule appends past this slice's length, so a
	// fold still pending here never reads what the growth writes.
	powers    []hpower
	length    int
	ctBlocks  int
	totalCLs  int
	doneCLs   int
	processed []bool
	partial   FieldEl // running XOR of per-block GHASH contributions
	// ctr holds a cacheline's four counter blocks (the record IV plus a
	// 32-bit counter each) and ks their keystream. They live in the
	// engine because the block cipher's interface call would move stack
	// buffers to the heap on every cacheline.
	ctr, ks [CachelineSize]byte
}

// KeySchedule is the per-key state the TLS DSA keeps across records: the
// expanded AES key and the powers of the hash subkey H. The records of
// one connection share both, so an engine built on a kept schedule only
// computes the powers a longer record adds. H belongs to the schedule's
// identity because the CPU supplies it in each record's config.
type KeySchedule struct {
	key    []byte
	cipher *Cipher
	powers *HPowers
}

// NewKeySchedule expands key (16, 24 or 32 bytes) and starts an empty
// table of powers of the 16-byte hash subkey h; engines grow it on
// demand.
func NewKeySchedule(key, h []byte) (*KeySchedule, error) {
	if len(h) != BlockSize {
		return nil, errors.New("aesgcm: H must be 16 bytes")
	}
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &KeySchedule{key: append([]byte(nil), key...), cipher: c, powers: NewHPowers(h, 0)}, nil
}

// NewEngine builds a record engine on the schedule, extending the H
// powers if this record needs more than any earlier one. cfg.Key and
// cfg.H must be those the schedule was built from.
func (k *KeySchedule) NewEngine(dir Direction, cfg RecordConfig) (*CachelineEngine, error) {
	e := new(CachelineEngine)
	if err := e.Reset(k, dir, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// NewCachelineEngine validates the config, expands the key and
// precomputes the H powers (the GF multiplier starts "as soon as the
// sbuf is registered").
func NewCachelineEngine(dir Direction, cfg RecordConfig) (*CachelineEngine, error) {
	ks, err := NewKeySchedule(cfg.Key, cfg.H)
	if err != nil {
		return nil, err
	}
	return ks.NewEngine(dir, cfg)
}

// Reset re-keys e for a new record on schedule k, as NewEngine would
// build it, but in e's own buffers: an engine kept across records
// allocates nothing once its processed bitmap has grown to the longest
// record. cfg.Key and cfg.H must be those k was built from.
func (e *CachelineEngine) Reset(k *KeySchedule, dir Direction, cfg RecordConfig) error {
	if dir != Encrypt && dir != Decrypt {
		return fmt.Errorf("aesgcm: unknown direction %d", dir)
	}
	if cfg.Length < 0 {
		return errors.New("aesgcm: negative record length")
	}
	if len(cfg.IV) != StandardIVSize {
		return fmt.Errorf("%w: %d bytes", ErrIVSize, len(cfg.IV))
	}
	if len(cfg.H) != BlockSize || len(cfg.EIV) != BlockSize {
		return errors.New("aesgcm: H and EIV must be 16 bytes")
	}
	if !bytes.Equal(k.key, cfg.Key) || k.powers.h != LoadEl(cfg.H) {
		return errors.New("aesgcm: key schedule built for a different key or H")
	}
	ctBlocks := (cfg.Length + BlockSize - 1) / BlockSize
	aadBlocks := (len(cfg.AAD) + BlockSize - 1) / BlockSize
	// Exponents run up to aadBlocks+ctBlocks+1 (the +1 is the lengths
	// block, which always multiplies last and therefore carries H^1;
	// earlier blocks carry correspondingly higher powers).
	k.powers.grow(aadBlocks + ctBlocks + 1)
	totalCLs := (cfg.Length + CachelineSize - 1) / CachelineSize
	e.dir, e.cipher, e.powers = dir, k.cipher, k.powers.powers
	e.length, e.ctBlocks, e.totalCLs, e.doneCLs = cfg.Length, ctBlocks, totalCLs, 0
	e.processed = slices.Grow(e.processed[:0], totalCLs)[:totalCLs]
	clear(e.processed)
	copy(e.eiv[:], cfg.EIV)
	for b := 0; b < CachelineSize; b += BlockSize {
		copy(e.ctr[b:], cfg.IV)
	}

	// Fold the AAD and lengths blocks immediately: the CPU supplies the
	// AAD in the config write, so their GHASH terms are known at
	// registration. The first AAD block carries the highest power and the
	// lengths block, which always multiplies last, carries H^1.
	var acc product
	exp := aadBlocks + ctBlocks + 1
	for j := 0; j < aadBlocks; j++ {
		var blk [BlockSize]byte
		copy(blk[:], cfg.AAD[j*BlockSize:])
		acc.add(LoadEl(blk[:]), e.powers[exp-1])
		exp--
	}
	var lenBlk [BlockSize]byte
	binary.BigEndian.PutUint64(lenBlk[0:8], uint64(len(cfg.AAD))*8)
	binary.BigEndian.PutUint64(lenBlk[8:16], uint64(cfg.Length)*8)
	acc.add(LoadEl(lenBlk[:]), e.powers[0])
	e.partial = acc.reduce()
	return nil
}

// Remaining returns how many cachelines have not yet been processed.
func (e *CachelineEngine) Remaining() int { return e.totalCLs - e.doneCLs }

// Done reports whether the full record has been transformed and the tag
// is final.
func (e *CachelineEngine) Done() bool { return e.doneCLs == e.totalCLs }

// ProcessCacheline transforms one 64-byte-aligned cacheline of the
// record: Claim, then Transform. offset is the byte offset within the
// record and must be a multiple of 64; src holds the input bytes
// (plaintext when encrypting, ciphertext when decrypting) and dst
// receives the output. The final cacheline of a record may be short.
// Cachelines may arrive in any order; processing the same cacheline
// twice is rejected, modelling the arbiter's "pending computation"
// bookkeeping (Fig. 6, S6/S7). dst and src must overlap exactly or not
// at all.
func (e *CachelineEngine) ProcessCacheline(dst, src []byte, offset int) error {
	n, err := e.span(offset)
	if err != nil {
		return err
	}
	if len(src) < n || len(dst) < n {
		return fmt.Errorf("aesgcm: cacheline at %d needs %d bytes, have src=%d dst=%d",
			offset, n, len(src), len(dst))
	}
	if err := e.claim(offset); err != nil {
		return err
	}
	e.Transform(dst[:n], src[:n], offset)
	return nil
}

// Claim is the bookkeeping half of ProcessCacheline: it checks the
// cacheline at offset and marks it processed, and returns how many of
// its bytes belong to the record. The line's bytes must then go
// through Transform before the tag is read.
func (e *CachelineEngine) Claim(offset int) (int, error) {
	n, err := e.span(offset)
	if err != nil {
		return 0, err
	}
	return n, e.claim(offset)
}

// span returns the record bytes of the cacheline at offset.
func (e *CachelineEngine) span(offset int) (int, error) {
	if offset%CachelineSize != 0 {
		return 0, fmt.Errorf("aesgcm: offset %d not cacheline aligned", offset)
	}
	if cl := offset / CachelineSize; cl < 0 || cl >= e.totalCLs {
		return 0, fmt.Errorf("aesgcm: offset %d outside record of %d bytes", offset, e.length)
	}
	return min(CachelineSize, e.length-offset), nil
}

// claim marks the in-range cacheline at offset processed.
func (e *CachelineEngine) claim(offset int) error {
	cl := offset / CachelineSize
	if e.processed[cl] {
		return fmt.Errorf("aesgcm: cacheline %d already processed", cl)
	}
	e.processed[cl] = true
	e.doneCLs++
	return nil
}

// Transform is the datapath half of ProcessCacheline: it (de/en)crypts
// the claimed cacheline at offset from src into dst and folds its
// GHASH contribution into the partial tag. src and dst hold exactly the
// line's record bytes, as Claim returned, and overlap exactly or not at
// all. Transforming a line twice, or one never claimed, corrupts the
// tag.
func (e *CachelineEngine) Transform(dst, src []byte, offset int) {
	// CTR transform: XOR with the randomly accessed keystream. GHASH
	// folds ciphertext: dst after encrypting, src before decrypting
	// (dst may alias src).
	n := len(src)
	e.keystreamAt(offset, n)
	if e.dir == Decrypt {
		e.foldCiphertext(src, offset)
	}
	subtle.XORBytes(dst, src, e.ks[:n])
	if e.dir == Encrypt {
		e.foldCiphertext(dst, offset)
	}
}

// keystreamAt fills e.ks[:n] with the CTR keystream of the cacheline at
// record offset off: one AES block per counter, counter 2 at offset 0.
func (e *CachelineEngine) keystreamAt(off, n int) {
	blk := uint32(off / BlockSize)
	for b := 0; b < n; b += BlockSize {
		binary.BigEndian.PutUint32(e.ctr[b+StandardIVSize:], blk+2)
		e.cipher.Encrypt(e.ks[b:], e.ctr[b:b+BlockSize])
		blk++
	}
}

// foldCiphertext adds the GHASH contributions of a cacheline's
// ciphertext blocks to the partial tag, summing their unreduced products
// and reducing once. Ciphertext block i (0-based over the record)
// carries exponent ctBlocks - i + 1: the AAD blocks precede it and the
// lengths block, at H^1, follows.
func (e *CachelineEngine) foldCiphertext(ct []byte, off int) {
	exp := e.ctBlocks - off/BlockSize + 1
	var acc product
	for len(ct) >= BlockSize {
		acc.add(LoadEl(ct), e.powers[exp-1])
		ct = ct[BlockSize:]
		exp--
	}
	if len(ct) > 0 {
		var blk [BlockSize]byte
		copy(blk[:], ct)
		acc.add(LoadEl(blk[:]), e.powers[exp-1])
	}
	e.partial = e.partial.Xor(acc.reduce())
}

// Tag returns the final authentication tag. It errors until every
// cacheline has been processed — in hardware the tag lands in the
// record trailer "after the entire sbuf is encrypted".
func (e *CachelineEngine) Tag() ([TagSize]byte, error) {
	var s [TagSize]byte
	if !e.Done() {
		return s, fmt.Errorf("aesgcm: tag not final, %d cachelines pending", e.Remaining())
	}
	e.partial.Store(s[:])
	subtle.XORBytes(s[:], s[:], e.eiv[:])
	return s, nil
}

// VerifyTag compares the engine's final tag with the received one in
// constant time. Used on the decrypt path.
func (e *CachelineEngine) VerifyTag(tag []byte) error {
	want, err := e.Tag()
	if err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(want[:], tag) != 1 {
		return ErrAuth
	}
	return nil
}
