package aesgcm

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
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

// ConfigBytes returns the Config Memory footprint of this record's
// context as laid out in hardware: the key, IV, EIV and AAD, an 8-byte
// header (direction, field lengths, payload length), and Stride+1 hash
// blocks: the four lane heads H^1..H^4 plus the lane multiplier H^4.
// One stored power per ciphertext block would need 256 x 16 B = 4 KB for
// a 4 KB page, four times the ~1 KB per source page the paper budgets;
// the DSA instead multiplies each lane forward by H^4 as cachelines
// arrive, the recurrence NewHPowers models.
func (c *RecordConfig) ConfigBytes() int {
	return len(c.Key) + len(c.IV) + len(c.EIV) + len(c.AAD) + (Stride+1)*BlockSize + 8
}

// CachelineEngine is the functional model of the TLS DSA datapath of
// Fig. 7. It (de/en)crypts 64-byte cachelines of a single TLS record in
// any order, folding each cacheline's GHASH contribution into a partial
// tag using precomputed powers of H, exactly as the hardware does when
// rdCAS commands arrive out of order. A new engine is built per
// registered source buffer; the only state records share is the
// read-mostly KeySchedule.
type CachelineEngine struct {
	dir       Direction
	cipher    *Cipher
	iv        []byte
	eiv       [BlockSize]byte
	powers    *HPowers
	length    int
	ctBlocks  int
	aadBlocks int
	totalCLs  int
	doneCLs   int
	processed []bool
	partial   FieldEl // running XOR of per-block GHASH contributions
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
	return newEngine(dir, cfg, k)
}

// NewCachelineEngine validates the config, expands the key and
// precomputes the H powers (the GF multiplier starts "as soon as the
// sbuf is registered").
func NewCachelineEngine(dir Direction, cfg RecordConfig) (*CachelineEngine, error) {
	return newEngine(dir, cfg, nil)
}

// newEngine builds the engine on ks, or on a fresh schedule when ks is
// nil.
func newEngine(dir Direction, cfg RecordConfig, ks *KeySchedule) (*CachelineEngine, error) {
	if cfg.Length < 0 {
		return nil, errors.New("aesgcm: negative record length")
	}
	if len(cfg.IV) != StandardIVSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrIVSize, len(cfg.IV))
	}
	if len(cfg.H) != BlockSize || len(cfg.EIV) != BlockSize {
		return nil, errors.New("aesgcm: H and EIV must be 16 bytes")
	}
	if ks == nil {
		var err error
		if ks, err = NewKeySchedule(cfg.Key, cfg.H); err != nil {
			return nil, err
		}
	} else if !bytes.Equal(ks.key, cfg.Key) || ks.powers.h != LoadEl(cfg.H) {
		return nil, errors.New("aesgcm: key schedule built for a different key or H")
	}
	ctBlocks := (cfg.Length + BlockSize - 1) / BlockSize
	aadBlocks := (len(cfg.AAD) + BlockSize - 1) / BlockSize
	// Exponents run up to aadBlocks+ctBlocks+1 (the +1 is the lengths
	// block, which always multiplies last and therefore carries H^1;
	// earlier blocks carry correspondingly higher powers).
	ks.powers.grow(aadBlocks + ctBlocks + 1)
	e := &CachelineEngine{
		dir:       dir,
		cipher:    ks.cipher,
		iv:        append([]byte(nil), cfg.IV...),
		powers:    ks.powers,
		length:    cfg.Length,
		ctBlocks:  ctBlocks,
		totalCLs:  (cfg.Length + CachelineSize - 1) / CachelineSize,
		processed: make([]bool, (cfg.Length+CachelineSize-1)/CachelineSize),
	}
	copy(e.eiv[:], cfg.EIV)

	// Fold the AAD contribution immediately: the CPU supplies the AAD in
	// the config write, so its GHASH terms are known at registration.
	totalBlocks := aadBlocks + ctBlocks + 1
	aad := cfg.AAD
	for j := 0; j < aadBlocks; j++ {
		var blk [BlockSize]byte
		copy(blk[:], aad[j*BlockSize:])
		exp := totalBlocks - j // j is 0-based: first AAD block has the highest power
		e.partial = e.partial.Xor(LoadEl(blk[:]).Mul(e.powers.Power(exp)))
	}
	// Fold the lengths block (exponent 1) — also known at registration.
	var lenBlk [BlockSize]byte
	binary.BigEndian.PutUint64(lenBlk[0:8], uint64(len(cfg.AAD))*8)
	binary.BigEndian.PutUint64(lenBlk[8:16], uint64(cfg.Length)*8)
	e.aadBlocks = aadBlocks
	e.partial = e.partial.Xor(LoadEl(lenBlk[:]).Mul(e.powers.Power(1)))
	return e, nil
}

// Remaining returns how many cachelines have not yet been processed.
func (e *CachelineEngine) Remaining() int { return e.totalCLs - e.doneCLs }

// Done reports whether the full record has been transformed and the tag
// is final.
func (e *CachelineEngine) Done() bool { return e.doneCLs == e.totalCLs }

// ProcessCacheline transforms one 64-byte-aligned cacheline of the
// record. offset is the byte offset within the record and must be a
// multiple of 64; src holds the input bytes (plaintext when encrypting,
// ciphertext when decrypting) and dst receives the output. The final
// cacheline of a record may be short. Cachelines may arrive in any
// order; processing the same cacheline twice is rejected, modelling the
// arbiter's "pending computation" bookkeeping (Fig. 6, S6/S7).
func (e *CachelineEngine) ProcessCacheline(dst, src []byte, offset int) error {
	if offset%CachelineSize != 0 {
		return fmt.Errorf("aesgcm: offset %d not cacheline aligned", offset)
	}
	cl := offset / CachelineSize
	if cl < 0 || cl >= e.totalCLs {
		return fmt.Errorf("aesgcm: offset %d outside record of %d bytes", offset, e.length)
	}
	want := CachelineSize
	if offset+want > e.length {
		want = e.length - offset
	}
	if len(src) < want || len(dst) < want {
		return fmt.Errorf("aesgcm: cacheline at %d needs %d bytes, have src=%d dst=%d",
			offset, want, len(src), len(dst))
	}
	if e.processed[cl] {
		return fmt.Errorf("aesgcm: cacheline %d already processed", cl)
	}

	// CTR transform: XOR with the randomly accessed keystream.
	var ks [CachelineSize]byte
	if err := e.keystreamAt(ks[:want], offset); err != nil {
		return err
	}
	// GHASH folds ciphertext: dst when encrypting, src when decrypting.
	var ctBytes []byte
	if e.dir == Encrypt {
		for i := 0; i < want; i++ {
			dst[i] = src[i] ^ ks[i]
		}
		ctBytes = dst[:want]
	} else {
		// Snapshot the ciphertext on the stack: dst may alias src.
		var ct [CachelineSize]byte
		copy(ct[:want], src)
		for i := 0; i < want; i++ {
			dst[i] = src[i] ^ ks[i]
		}
		ctBytes = ct[:want]
	}
	e.foldCiphertext(ctBytes, offset)
	e.processed[cl] = true
	e.doneCLs++
	return nil
}

// keystreamAt produces CTR keystream for record offsets
// [offset, offset+len(dst)), streaming the counter block instead of
// rebuilding it per AES block.
func (e *CachelineEngine) keystreamAt(dst []byte, offset int) error {
	var cb, ks [BlockSize]byte
	copy(cb[:StandardIVSize], e.iv)
	blockIdx := offset / BlockSize
	within := offset % BlockSize
	written := 0
	for written < len(dst) {
		binary.BigEndian.PutUint32(cb[StandardIVSize:], uint32(blockIdx)+2)
		e.cipher.Encrypt(ks[:], cb[:])
		written += copy(dst[written:], ks[within:])
		within = 0
		blockIdx++
	}
	return nil
}

// foldCiphertext XOR-accumulates the GHASH contributions of the
// ciphertext blocks in this cacheline. Block i (1-based over the
// record's ciphertext blocks) carries exponent
// (aadBlocks + ctBlocks + 1) - (aadBlocks + i) + 1 = ctBlocks - i + 2.
func (e *CachelineEngine) foldCiphertext(ct []byte, offset int) {
	totalBlocks := e.aadBlocks + e.ctBlocks + 1
	for off := 0; off < len(ct); off += BlockSize {
		var blk [BlockSize]byte
		copy(blk[:], ct[off:])
		blockIdx := (offset + off) / BlockSize // 0-based ct block index
		pos := e.aadBlocks + blockIdx + 1      // 1-based position in GHASH sequence
		exp := totalBlocks - pos + 1
		e.partial = e.partial.Xor(LoadEl(blk[:]).Mul(e.powers.Power(exp)))
	}
}

// Tag returns the final authentication tag. It errors until every
// cacheline has been processed — in hardware the tag lands in the
// record trailer "after the entire sbuf is encrypted".
func (e *CachelineEngine) Tag() ([]byte, error) {
	if !e.Done() {
		return nil, fmt.Errorf("aesgcm: tag not final, %d cachelines pending", e.Remaining())
	}
	var s [BlockSize]byte
	e.partial.Store(s[:])
	for i := range s {
		s[i] ^= e.eiv[i]
	}
	return s[:], nil
}

// VerifyTag compares the engine's final tag with the received one in
// constant time. Used on the decrypt path.
func (e *CachelineEngine) VerifyTag(tag []byte) error {
	want, err := e.Tag()
	if err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(want, tag) != 1 {
		return ErrAuth
	}
	return nil
}
