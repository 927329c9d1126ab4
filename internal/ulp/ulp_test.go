package ulp

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/deflate"
)

func pair(t *testing.T) (*Session, *Session) {
	t.Helper()
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	tx, err := NewSession(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSession(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestRecordRoundTrip(t *testing.T) {
	tx, rx := pair(t)
	for _, n := range []int{0, 1, 100, MaxRecordPayload} {
		payload := corpus.Generate(corpus.Text, n, int64(n))
		rec, err := tx.EncryptRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) != RecordHeaderLen+n+aesgcm.TagSize {
			t.Fatalf("record length %d", len(rec))
		}
		pt, consumed, err := rx.DecryptRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(rec) || !bytes.Equal(pt, payload) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestRecordTooLarge(t *testing.T) {
	tx, _ := pair(t)
	if _, err := tx.EncryptRecord(make([]byte, MaxRecordPayload+1)); err != ErrRecordTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestSequenceNumbersMatter(t *testing.T) {
	tx, rx := pair(t)
	r1, _ := tx.EncryptRecord([]byte("first"))
	r2, _ := tx.EncryptRecord([]byte("second"))
	// Decrypting out of order must fail (nonce mismatch).
	if _, _, err := rx.DecryptRecord(r2); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	// Fresh receiver in order works.
	_, rx2 := pair(t)
	if _, _, err := rx2.DecryptRecord(r1); err != nil {
		t.Fatal(err)
	}
	if pt, _, err := rx2.DecryptRecord(r2); err != nil || string(pt) != "second" {
		t.Fatal("in-order decrypt failed")
	}
}

func TestRecordParsingErrors(t *testing.T) {
	_, rx := pair(t)
	if _, _, err := rx.DecryptRecord([]byte{1, 2}); err != ErrShortRecord {
		t.Fatalf("short: %v", err)
	}
	bad := Header(100)
	bad[1] = 0x02 // wrong version
	if _, _, err := rx.DecryptRecord(append(bad, make([]byte, 100)...)); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	hdr := Header(100) // claims 100 bytes, provides 10
	if _, _, err := rx.DecryptRecord(append(hdr, make([]byte, 10)...)); err != ErrShortRecord {
		t.Fatalf("truncated body: %v", err)
	}
	// Tampering detected.
	tx, rx2 := pair(t)
	rec, _ := tx.EncryptRecord([]byte("data"))
	rec[7] ^= 1
	if _, _, err := rx2.DecryptRecord(rec); err == nil {
		t.Fatal("tampered record accepted")
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession([]byte("short"), make([]byte, 12)); err == nil {
		t.Fatal("bad key accepted")
	}
	if _, err := NewSession(make([]byte, 16), make([]byte, 8)); err == nil {
		t.Fatal("bad IV accepted")
	}
}

func TestCompressBodyRoundTripBothEncoders(t *testing.T) {
	for _, kind := range []corpus.Kind{corpus.HTML, corpus.Random, corpus.Zeros} {
		body := corpus.Generate(kind, 3*core.MaxCompressInput+1000, 3)
		// Software encoder.
		sw := CompressBody(body, nil)
		got, err := DecompressBody(sw)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%v soft: %v", kind, err)
		}
		// Hardware-style encoder.
		hw := CompressBody(body, deflate.NewHWEncoder(deflate.PaperHWConfig()))
		got, err = DecompressBody(hw)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%v hw: %v", kind, err)
		}
		if kind == corpus.HTML && len(sw) >= len(body) {
			t.Fatal("html did not compress")
		}
		if kind == corpus.HTML && len(sw) > len(hw) {
			t.Fatal("software encoder should compress at least as well as the DSA")
		}
	}
}

func TestDecompressBodyErrors(t *testing.T) {
	if _, err := DecompressBody([]byte{1, 2}); err == nil {
		t.Fatal("truncated header accepted")
	}
	hdr := []byte{100, 0, 0, 0, 1, 2, 3} // claims 100 payload bytes
	if _, err := DecompressBody(hdr); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestCompressBodyQuick(t *testing.T) {
	f := func(body []byte) bool {
		out, err := DecompressBody(CompressBody(body, nil))
		return err == nil && bytes.Equal(out, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
