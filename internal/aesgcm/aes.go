// Package aesgcm models AES-GCM the way SmartDIMM's TLS DSA computes it
// (§V-A of the paper):
//
//   - the CTR keystream is randomly accessible, so any 64-byte cacheline
//     of a TLS record can be (de/en)crypted independently and out of
//     order as rdCAS commands arrive at the DIMM (Observation 4:
//     incremental computability);
//   - GHASH powers of the hash subkey H are precomputed in strides of 4
//     to break the dependency chain between the GHASH contributions of
//     different cachelines (Fig. 7); a cacheline's four terms are summed
//     unreduced and reduced once;
//   - the hash subkey H and the encrypted initialization vector EIV are
//     computed by the *caller* (the CPU side, one AES-NI instruction in
//     the paper) and handed to the engine through its config, mirroring
//     the CPU/DIMM split.
//
// The AES block primitive is the standard library's crypto/aes (AES-NI
// on amd64); the DSA's AES cost is charged by the timing model, not by
// host time. GCM mode, GHASH and the cacheline engine are implemented
// here. The tests keep a from-scratch T-table AES as the differential
// oracle for the block, and check GCM against NIST SP 800-38D vectors and
// crypto/cipher's GCM on random inputs.
package aesgcm

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// Cipher is an AES block cipher with an expanded key schedule.
type Cipher struct {
	block cipher.Block
}

// NewCipher expands key (16, 24, or 32 bytes) into a Cipher.
func NewCipher(key []byte) (*Cipher, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aesgcm: invalid key size %d", len(key))
	}
	return &Cipher{block: b}, nil
}

// Encrypt encrypts one 16-byte block from src into dst (may alias). It
// panics if either is shorter than a block. Both escape through the
// block interface, so hot callers pass buffers they own on the heap.
func (c *Cipher) Encrypt(dst, src []byte) { c.block.Encrypt(dst, src) }
