package offload

import (
	"bytes"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/deflate"
	"repro/internal/ulp"
)

// buildWireTLS produces wire records (ciphertext||tag, no header) for a
// message using the same key schedule a Conn derives.
func buildWireTLS(t *testing.T, conn *Conn, payload []byte) ([][]byte, []int) {
	t.Helper()
	g, err := aesgcm.NewGCM(conn.Key)
	if err != nil {
		t.Fatal(err)
	}
	seq := &Conn{ivBase: conn.ivBase}
	l := LayoutFor(TLS)
	var records [][]byte
	var lens []int
	for _, n := range l.Chunks(len(payload)) {
		sealed, err := g.Seal(nil, seq.NextIV(), payload[:n], ulp.Header(n+aesgcm.TagSize))
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, sealed)
		lens = append(lens, n)
		payload = payload[n:]
	}
	return records, lens
}

func TestRXTLSOnCPU(t *testing.T) {
	sys := newSys(t, 512<<10, false)
	b := &CPU{Sys: sys, Functional: true}
	conn, err := b.NewConn(TLS, 7, 40000)
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.Generate(corpus.JSON, 40000, 2)
	records, lens := buildWireTLS(t, conn, payload)
	if err := StageRXRecordsDMA(sys, conn, records); err != nil {
		t.Fatal(err)
	}
	res, err := b.ReceiveTLS(0, conn, lens)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuthOK {
		t.Fatal("auth failed on valid records")
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("RX payload mismatch")
	}
	if res.Records != len(records) || res.CPUPs <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestRXTLSOnSmartDIMM(t *testing.T) {
	sys := newSys(t, 256<<10, true)
	b := &SmartDIMM{Sys: sys}
	conn, err := b.NewConn(TLS, 8, 40000)
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.Generate(corpus.Text, 40000, 3)
	records, lens := buildWireTLS(t, conn, payload)
	if err := StageRXRecordsDMA(sys, conn, records); err != nil {
		t.Fatal(err)
	}
	res, err := b.ReceiveTLS(0, conn, lens)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuthOK {
		t.Fatal("near-memory tag verification failed on valid records")
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("SmartDIMM RX payload mismatch")
	}
	if sys.Dev.Stats().AuthFailures != 0 {
		t.Fatal("device counted auth failures")
	}
}

// TestRXTLSSoftRungMatchesCPU checks that SmartDIMM's CPU rung on
// receive is the CPU placement's record open: a Soft backend and a
// functional CPU backend, on identically built systems with the same
// staged records at the same addresses (one record tampered), return
// the same payload, verdict, record count and CPU time.
func TestRXTLSSoftRungMatchesCPU(t *testing.T) {
	payload := corpus.Generate(corpus.HTML, 40000, 6)
	run := func(soft bool) RXResult {
		sys := newSys(t, 256<<10, true)
		dimm := &SmartDIMM{Sys: sys, Soft: true}
		conn, err := dimm.NewConn(TLS, 10, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		records, lens := buildWireTLS(t, conn, payload)
		records[1][7] ^= 0x01
		if err := StageRXRecordsDMA(sys, conn, records); err != nil {
			t.Fatal(err)
		}
		var res RXResult
		if soft {
			res, err = dimm.ReceiveTLS(0, conn, lens)
		} else {
			res, err = (&CPU{Sys: sys, Functional: true}).ReceiveTLS(0, conn, lens)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	soft, cpu := run(true), run(false)
	if soft.AuthOK || cpu.AuthOK {
		t.Fatalf("tampered record verified: soft %v, cpu %v", soft.AuthOK, cpu.AuthOK)
	}
	if !bytes.Equal(soft.Payload, cpu.Payload) || soft.Records != cpu.Records || soft.CPUPs != cpu.CPUPs {
		t.Fatalf("soft rung: %d records, %d ps, %d payload bytes; cpu: %d records, %d ps, %d payload bytes",
			soft.Records, soft.CPUPs, len(soft.Payload), cpu.Records, cpu.CPUPs, len(cpu.Payload))
	}
	l := LayoutFor(TLS)
	if !bytes.Equal(cpu.Payload[:l.MaxChunk], payload[:l.MaxChunk]) {
		t.Fatal("the untampered first record did not decrypt")
	}
}

func TestRXTLSTamperDetectedNearMemory(t *testing.T) {
	sys := newSys(t, 256<<10, true)
	b := &SmartDIMM{Sys: sys}
	conn, _ := b.NewConn(TLS, 9, 4096)
	payload := corpus.Generate(corpus.Text, 4096, 4)
	records, lens := buildWireTLS(t, conn, payload)
	records[0][5] ^= 0x40 // corrupt ciphertext on the wire
	if err := StageRXRecordsDMA(sys, conn, records); err != nil {
		t.Fatal(err)
	}
	res, err := b.ReceiveTLS(0, conn, lens)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuthOK {
		t.Fatal("tampered record passed near-memory verification")
	}
	if sys.Dev.Stats().AuthFailures == 0 {
		t.Fatal("device did not count the auth failure")
	}
}

func TestRXCompressedBothBackends(t *testing.T) {
	body := corpus.Generate(corpus.HTML, 2*core.MaxCompressInput+500, 5)
	// Build wire pages with the DSA encoder (what a SmartDIMM TX sent).
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	var records [][]byte
	var lens []int
	rest := body
	for len(rest) > 0 {
		n := len(rest)
		if n > core.MaxCompressInput {
			n = core.MaxCompressInput
		}
		page, err := core.EncodeCompressedPage(rest[:n], enc)
		if err != nil {
			t.Fatal(err)
		}
		plen, _ := core.CompressedPayloadLen(page)
		records = append(records, page[:4+plen])
		lens = append(lens, 4+plen)
		rest = rest[n:]
	}

	// CPU RX.
	sysC := newSys(t, 512<<10, false)
	cb := &CPU{Sys: sysC, Functional: true}
	connC, _ := cb.NewConn(Compression, 10, len(body))
	if err := StageRXRecordsDMA(sysC, connC, records); err != nil {
		t.Fatal(err)
	}
	resC, err := cb.ReceiveCompressed(0, connC, lens)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resC.Payload, body) {
		t.Fatal("CPU RX decompression mismatch")
	}

	// SmartDIMM RX (Inflate DSA); output pages are padded, so trim.
	sysD := newSys(t, 256<<10, true)
	db := &SmartDIMM{Sys: sysD}
	connD, _ := db.NewConn(Compression, 11, len(body))
	if err := StageRXRecordsDMA(sysD, connD, records); err != nil {
		t.Fatal(err)
	}
	resD, err := db.ReceiveCompressed(0, connD, lens)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	rest = body
	for k := range records {
		n := len(rest)
		if n > core.MaxCompressInput {
			n = core.MaxCompressInput
		}
		got = append(got, resD.Payload[k*core.PageSize:k*core.PageSize+n]...)
		rest = rest[n:]
	}
	if !bytes.Equal(got, body) {
		t.Fatal("SmartDIMM RX decompression mismatch")
	}
}

func TestRXInteropWithULPSession(t *testing.T) {
	// Records produced by the ulp.Session reference implementation (the
	// software TLS stack) must decrypt through the SmartDIMM RX path:
	// the two ends speak the same record protocol.
	sys := newSys(t, 256<<10, true)
	b := &SmartDIMM{Sys: sys}
	conn, _ := b.NewConn(TLS, 12, 8000)
	sess, err := ulp.NewSession(conn.Key, conn.ivBase[:])
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.Generate(corpus.HTML, 8000, 6)
	rec, err := sess.EncryptRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the 5-byte header: the RX staging carries ciphertext||tag.
	wire := rec[ulp.RecordHeaderLen:]
	if err := StageRXRecordsDMA(sys, conn, [][]byte{wire}); err != nil {
		t.Fatal(err)
	}
	res, err := b.ReceiveTLS(0, conn, []int{len(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuthOK || !bytes.Equal(res.Payload, payload) {
		t.Fatal("ulp.Session record did not decrypt through SmartDIMM RX")
	}
}

func TestStageRXOversizedRecordRejected(t *testing.T) {
	sys := newSys(t, 256<<10, false)
	b := &CPU{Sys: sys}
	conn, _ := b.NewConn(TLS, 13, 4096)
	big := make([]byte, LayoutFor(TLS).SrcStride+1)
	if err := StageRXRecordsDMA(sys, conn, [][]byte{big}); err == nil {
		t.Fatal("oversized RX record accepted")
	}
}
