// Compression: offload Deflate compression of different corpora to the
// SmartDIMM DSA, compare its best-effort hardware pipeline against
// software deflate (the CPU baseline's page producer), and verify every
// page round-trips.
//
//	go run ./examples/compression
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/deflate"
	"repro/internal/sim"
	"repro/internal/ulp"
)

func main() {
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 512 << 10, LLCWays: 8,
		WithSmartDIMM: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	drv := sys.Driver

	fmt.Printf("%-8s %-14s %-14s %-14s %s\n",
		"corpus", "DSA ratio", "software", "DSA conflicts", "round trip")
	for _, kind := range corpus.AllKinds() {
		data := corpus.Generate(kind, core.MaxCompressInput, 42)

		// Offload one page compression through CompCpy (ordered mode:
		// the Deflate DSA consumes the stream sequentially, §V-B).
		sbuf, err := drv.AllocPages(1)
		if err != nil {
			log.Fatal(err)
		}
		dbuf, err := drv.AllocPages(1)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.Hier.Write(0, sbuf, data); err != nil {
			log.Fatal(err)
		}
		ctx := &core.OffloadContext{Op: core.OpCompress, Length: len(data)}
		if _, err := drv.CompCpy(0, dbuf, sbuf, core.PageSize, ctx, true); err != nil {
			log.Fatal(err)
		}
		page, _, err := drv.Use(0, dbuf, core.PageSize)
		if err != nil {
			log.Fatal(err)
		}
		clen, err := core.CompressedPayloadLen(page)
		if err != nil {
			log.Fatal(err)
		}
		back, err := core.DecodeCompressedPage(page)
		if err != nil {
			log.Fatal(err)
		}
		ok := bytes.Equal(back, data)

		// Software deflate for comparison: the page the CPU baseline
		// produces.
		sw := core.SoftCompressPage(data)

		// A standalone DSA instance to read out the conflict statistics.
		enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
		enc.Compress(data)
		st := enc.Stats()

		fmt.Printf("%-8s %-14.2f %-14.2f %-14d %v\n",
			kind,
			float64(len(data))/float64(4+clen),
			float64(len(data))/float64(len(sw)),
			st.BankConflicts, ok)
		drv.FreePages(sbuf, 1)
		drv.FreePages(dbuf, 1)
	}

	// A multi-page HTTP body through the ULP framing helpers.
	body := corpus.Generate(corpus.HTML, 3*core.MaxCompressInput, 7)
	wire := ulp.CompressBody(body, deflate.NewHWEncoder(deflate.PaperHWConfig()))
	back, err := ulp.DecompressBody(wire)
	if err != nil || !bytes.Equal(back, body) {
		log.Fatal("multi-page body round trip failed")
	}
	fmt.Printf("\nHTTP body: %d bytes -> %d on the wire (%.2fx) across %d pages, decoded OK\n",
		len(body), len(wire), float64(len(body))/float64(len(wire)),
		(len(body)+core.MaxCompressInput-1)/core.MaxCompressInput)
	fmt.Println("\nThe DSA trades a little compression ratio (4KB window, best-effort bank")
	fmt.Println("access) for deterministic single-pass latency at DDR line rate (§V-B).")
}
