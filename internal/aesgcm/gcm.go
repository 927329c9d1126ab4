package aesgcm

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Errors returned by GCM operations.
var (
	ErrAuth   = errors.New("aesgcm: message authentication failed")
	ErrIVSize = errors.New("aesgcm: unsupported IV size")
)

// TagSize is the GCM authentication tag length used throughout (the TLS
// AEAD tag size).
const TagSize = 16

// StandardIVSize is the recommended 96-bit IV size of SP 800-38D, the
// only size TLS uses and the only one this implementation supports.
const StandardIVSize = 12

// GCM provides authenticated encryption using AES in Galois/Counter
// Mode. It is the software reference the SmartDIMM TLS DSA is checked
// against, and also the "CPU baseline" codec the offload backends use.
type GCM struct {
	cipher *Cipher
	h      [BlockSize]byte // hash subkey H = E_K(0^128)
	// table is the GHASH table, built once per key by the first Seal or
	// Open. The SmartDIMM path asks a connection's GCM only for H and
	// EIV, so it never holds the table's 4 KB.
	table atomic.Pointer[mulTable8]
}

// NewGCM wraps an AES key (16/24/32 bytes) in GCM mode.
func NewGCM(key []byte) (*GCM, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	g := &GCM{cipher: c}
	c.Encrypt(g.h[:], g.h[:]) // g.h starts as the zero block
	return g, nil
}

// H returns the hash subkey E_K(0^128). In the paper's split, the CPU
// computes H and writes it to SmartDIMM's Config Memory.
func (g *GCM) H() []byte {
	out := make([]byte, BlockSize)
	copy(out, g.h[:])
	return out
}

// EIV returns E_K(J0), the encrypted initial counter block for the given
// 96-bit IV — the "EIV" the CPU supplies to the DSA so the final tag can
// be produced entirely near memory (§V-A, Fig. 7).
func (g *GCM) EIV(iv []byte) ([]byte, error) { return g.AppendEIV(nil, iv) }

// AppendEIV appends the EIV for iv to dst and returns the extended
// slice; a caller that keeps a 16-byte buffer computes it without
// allocating.
func (g *GCM) AppendEIV(dst, iv []byte) ([]byte, error) {
	j0, err := counterBlock(iv, 1)
	if err != nil {
		return nil, err
	}
	n := len(dst)
	dst = append(dst, j0[:]...)
	g.cipher.Encrypt(dst[n:], dst[n:])
	return dst, nil
}

// counterBlock builds the CTR block for a 96-bit IV with the given
// 32-bit counter value.
func counterBlock(iv []byte, ctr uint32) ([BlockSize]byte, error) {
	var b [BlockSize]byte
	if len(iv) != StandardIVSize {
		return b, fmt.Errorf("%w: %d bytes", ErrIVSize, len(iv))
	}
	copy(b[:StandardIVSize], iv)
	binary.BigEndian.PutUint32(b[StandardIVSize:], ctr)
	return b, nil
}

// blocks lends 16-byte scratch blocks: a block handed to the AES
// interface escapes, so a stack array would be a heap allocation per
// call.
var blocks = sync.Pool{New: func() any { return new([BlockSize]byte) }}

// KeystreamAt fills dst with the CTR keystream bytes covering message
// offsets [offset, offset+len(dst)). Offset 0 is the first plaintext
// byte (counter value 2; counter 1 is reserved for the tag per the GCM
// spec). Random access is what makes the ULP incrementally computable
// (Observation 4): any 64-byte cacheline can be processed independently.
func (g *GCM) KeystreamAt(dst []byte, iv []byte, offset int) error {
	if len(iv) != StandardIVSize {
		return fmt.Errorf("%w: %d bytes", ErrIVSize, len(iv))
	}
	if offset < 0 {
		return errors.New("aesgcm: negative keystream offset")
	}
	// A whole block's counter is built and encrypted in place in dst; only
	// a partial first or last block needs a scratch block.
	ctr := uint32(offset/BlockSize) + 2
	within := offset % BlockSize
	for ; len(dst) > 0; ctr++ {
		if within == 0 && len(dst) >= BlockSize {
			copy(dst, iv)
			binary.BigEndian.PutUint32(dst[StandardIVSize:], ctr)
			g.cipher.Encrypt(dst, dst)
			dst = dst[BlockSize:]
			continue
		}
		ks := blocks.Get().(*[BlockSize]byte)
		copy(ks[:], iv)
		binary.BigEndian.PutUint32(ks[StandardIVSize:], ctr)
		g.cipher.Encrypt(ks[:], ks[:])
		dst = dst[copy(dst, ks[within:]):]
		blocks.Put(ks)
		within = 0
	}
	return nil
}

// Seal encrypts plaintext with the given 96-bit IV and additional data,
// returning ciphertext||tag appended to dst.
func (g *GCM) Seal(dst, iv, plaintext, aad []byte) ([]byte, error) {
	if len(iv) != StandardIVSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrIVSize, len(iv))
	}
	ret, out := sliceForAppend(dst, len(plaintext)+TagSize)
	ct := out[:len(plaintext)]
	if err := g.KeystreamAt(ct, iv, 0); err != nil {
		return nil, err
	}
	for i := range plaintext {
		ct[i] ^= plaintext[i]
	}
	if err := g.computeTag(out[len(plaintext):], iv, ct, aad); err != nil {
		return nil, err
	}
	return ret, nil
}

// Open authenticates and decrypts ciphertext||tag, returning the
// plaintext appended to dst, or ErrAuth if the tag does not verify.
func (g *GCM) Open(dst, iv, sealed, aad []byte) ([]byte, error) {
	if len(sealed) < TagSize {
		return nil, ErrAuth
	}
	ct := sealed[:len(sealed)-TagSize]
	tag := sealed[len(sealed)-TagSize:]
	want := blocks.Get().(*[BlockSize]byte)
	defer blocks.Put(want)
	if err := g.computeTag(want[:], iv, ct, aad); err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(tag, want[:]) != 1 {
		return nil, ErrAuth
	}
	ret, out := sliceForAppend(dst, len(ct))
	if err := g.KeystreamAt(out, iv, 0); err != nil {
		return nil, err
	}
	for i := range ct {
		out[i] ^= ct[i]
	}
	return ret, nil
}

// computeTag writes the tag into its TagSize bytes: GHASH over
// aad||ct||lengths, encrypted with E_K(J0). It reuses the per-key
// table instead of rebuilding it per record.
func (g *GCM) computeTag(tag, iv, ct, aad []byte) error {
	t := g.table.Load()
	if t == nil {
		// Concurrent first calls may each build the table; every copy
		// is the same.
		t = newMulTable8(LoadEl(g.h[:]))
		g.table.Store(t)
	}
	gh := GHASH{table: t}
	gh.Update(aad)
	gh.Update(ct)
	gh.UpdateLengths(len(aad), len(ct))
	var s [BlockSize]byte
	gh.Sum(s[:])
	if _, err := g.AppendEIV(tag[:0], iv); err != nil {
		return err
	}
	for i := range s {
		tag[i] ^= s[i]
	}
	return nil
}

// sliceForAppend extends in by n bytes, reusing capacity when possible,
// following the pattern used by the standard library's AEADs.
func sliceForAppend(in []byte, n int) (head, tail []byte) {
	if total := len(in) + n; cap(in) >= total {
		head = in[:total]
	} else {
		head = make([]byte, total)
		copy(head, in)
	}
	tail = head[len(in):]
	return
}
