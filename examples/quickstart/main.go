// Quickstart: offload one TLS record encryption to SmartDIMM through
// the CompCpy API and verify the result against a software AES-GCM
// implementation.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	// Assemble a host with a SmartDIMM on channel 0: LLC + memory
	// controller + buffer device (arbiter, translation table,
	// scratchpad, TLS/Deflate DSAs) + DRAM chips.
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params:        sim.DefaultParams(),
		LLCBytes:      1 << 20,
		LLCWays:       8,
		WithSmartDIMM: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	drv := sys.Driver

	// The message to protect, and the TLS session material.
	plaintext := []byte("SmartDIMM transforms data as it traverses the DDR channel — " +
		"this record is encrypted by the DSA on the DIMM's buffer device.")
	key := []byte("0123456789abcdef")
	iv := []byte("unique-nonce")[:12]

	// The CPU side computes the hash subkey H and encrypted IV (one
	// AES-NI instruction each, §V-A) and hands them to the DSA.
	g, err := aesgcm.NewGCM(key)
	if err != nil {
		log.Fatal(err)
	}
	eiv, err := g.EIV(iv)
	if err != nil {
		log.Fatal(err)
	}

	// Allocate page-aligned offload buffers on the SmartDIMM and stage
	// the plaintext (the record trailer holds the 16-byte tag).
	recordLen := len(plaintext) + core.TagSize
	sbuf, err := drv.AllocPages(1)
	if err != nil {
		log.Fatal(err)
	}
	dbuf, err := drv.AllocPages(1)
	if err != nil {
		log.Fatal(err)
	}
	src := make([]byte, core.PageSize)
	copy(src, plaintext)
	if _, err := sys.Hier.Write(0, sbuf, src); err != nil {
		log.Fatal(err)
	}

	// CompCpy: copy sbuf -> dbuf while the TLS DSA encrypts in flight.
	ctx := &core.OffloadContext{
		Op: core.OpTLSEncrypt,
		TLS: &core.TLSContext{
			Direction: aesgcm.Encrypt, Key: key, IV: iv,
			H: g.H(), EIV: eiv, PayloadLen: len(plaintext),
		},
		Length: len(plaintext),
	}
	elapsed, err := drv.CompCpy(0, dbuf, sbuf, recordLen, ctx, false)
	if err != nil {
		log.Fatal(err)
	}

	// USE (Algorithm 2): flush the destination and read the record.
	record, _, err := drv.Use(0, dbuf, recordLen)
	if err != nil {
		log.Fatal(err)
	}
	ciphertext, tag := record[:len(plaintext)], record[len(plaintext):]

	// Verify against the software reference.
	want, err := g.Seal(nil, iv, plaintext, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(record, want) {
		log.Fatal("SmartDIMM output does not match software AES-GCM")
	}

	st := sys.Dev.Stats()
	fmt.Printf("plaintext   (%3d B): %q...\n", len(plaintext), plaintext[:40])
	fmt.Printf("ciphertext  (%3d B): %x...\n", len(ciphertext), ciphertext[:16])
	fmt.Printf("auth tag    (%3d B): %x\n", len(tag), tag)
	fmt.Printf("matches software AES-GCM: true\n\n")
	fmt.Printf("modelled CompCpy time:   %.2f us\n", float64(elapsed)/float64(sim.Us))
	fmt.Printf("DSA cachelines fed:      %d\n", st.DSALinesFed)
	fmt.Printf("self-recycled lines:     %d\n", st.SelfRecycles)
	fmt.Printf("scratchpad reads (S10):  %d\n", st.ScratchpadReads)
	fmt.Printf("scratchpad pages free:   %d / 2048\n", sys.Dev.ScratchpadFreePages())
}
