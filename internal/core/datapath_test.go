package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/corpus"
	"repro/internal/deflate"
	"repro/internal/dram"
	"repro/internal/fault"
)

// queueRecord feeds every source line of a one-page TLS encrypt record
// on the raw device and queues its datapath on a channel of the test's
// own, so no worker ever starts it: the record stays queued until the
// device settles it. It returns the destination base, the record, the
// queue and the lines the inline path produces: the sealed record,
// zero-filled to its last line.
func queueRecord(t *testing.T, r *rawDevice) (uint64, *record, chan settleJob, []byte) {
	t.Helper()
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	const payload = 4000 // under a page: the device never hands it off itself
	pt := corpus.Generate(corpus.HTML, payload, 5)
	sbuf, dbuf := r.registerTLS(0, payload, key, iv)
	var line [dram.CachelineSize]byte
	for off := 0; off < payload+TagSize; off += dram.CachelineSize {
		clear(line[:])
		copy(line[:], pt[min(off, payload):])
		r.write(1, sbuf+uint64(off), line[:]) // source writes pass through
		r.read(1, sbuf+uint64(off), line[:])  // S6: feed the DSA
	}
	tr, ok := r.dev.tt.Lookup(sbuf / PageSize)
	if !ok || tr.owner() == nil {
		t.Fatal("record not registered")
	}
	rec := tr.owner()
	if !rec.dsa.(*tlsDSA).pending() {
		t.Fatal("record settled before the test queued it")
	}
	jobs := make(chan settleJob, 1)
	enqueue(jobs, rec)
	if rec.phase.Load() != phaseWord(rec.gen, phaseQueued) {
		t.Fatal("record not queued")
	}
	want := stdSeal(t, key, iv, pt, nil)
	lines := (len(want) + dram.CachelineSize - 1) / dram.CachelineSize
	return dbuf, rec, jobs, append(want, make([]byte, lines*dram.CachelineSize-len(want))...)
}

// lateWorker runs the queue's jobs as a worker that starts them only
// now, after the device has moved on.
func lateWorker(jobs chan settleJob) {
	close(jobs)
	serveDatapath(jobs)
}

// TestSettleQueuedRecordOnObservation checks that a destination line
// read (S10) or written back (Self-Recycle) while its record is still
// queued yields the bytes of the inline path: the device claims the
// record back and runs its datapath first, and the worker that starts
// the job later finds nothing to do.
func TestSettleQueuedRecordOnObservation(t *testing.T) {
	observe := map[string]func(r *rawDevice, dbuf uint64, line []byte){
		"S10": func(r *rawDevice, dbuf uint64, line []byte) {
			if r.read(1000, dbuf, line) {
				t.Fatal("S10 read alerted")
			}
		},
		"SelfRecycle": func(r *rawDevice, dbuf uint64, line []byte) {
			r.write(1000, dbuf, bytes.Repeat([]byte{0xAA}, dram.CachelineSize))
			r.read(2000, dbuf, line) // recycled: served by the DRAM chips
		},
	}
	for name, obs := range observe {
		t.Run(name, func(t *testing.T) {
			r := newRawDevice(t)
			dbuf, rec, jobs, want := queueRecord(t, r)
			got := make([]byte, len(want))
			for off := 0; off < len(want); off += dram.CachelineSize {
				obs(r, dbuf+uint64(off), got[off:off+dram.CachelineSize])
			}
			if !bytes.Equal(got, want) {
				t.Fatal("destination differs from the inline path's sealed record")
			}
			if p := rec.phase.Load(); p == phaseWord(rec.gen, phaseQueued) {
				t.Fatal("record still queued after its lines were observed")
			}
			lateWorker(jobs)
			for off := 0; off < len(want); off += dram.CachelineSize {
				r.read(3000, dbuf+uint64(off), got[off:off+dram.CachelineSize])
			}
			if !bytes.Equal(got, want) {
				t.Fatal("destination changed after the late worker ran")
			}
		})
	}
}

// checkConserved fails unless the device holds no record, Scratchpad
// page, Config Memory page or translation.
func checkConserved(t *testing.T, d *Device) {
	t.Helper()
	if n := d.ScratchpadFreePages(); n != d.cfg.ScratchpadPages {
		t.Errorf("%d Scratchpad pages free, want %d", n, d.cfg.ScratchpadPages)
	}
	if n := d.ConfigFreePages(); n != d.cfg.ConfigPages {
		t.Errorf("%d Config Memory pages free, want %d", n, d.cfg.ConfigPages)
	}
	if n := d.TranslationCount(); n != 0 {
		t.Errorf("%d translations left, want 0", n)
	}
	if n := d.InFlightRecords(); n != 0 {
		t.Errorf("%d records in flight, want 0", n)
	}
}

// TestAbortUnsettledRecordConserves tears down a TLS record whose
// claimed lines are not transformed yet, by a core.dsa fault on its last
// source line and by an abort op while it is queued. Either way the
// device's pools are conserved, and a compression record that reuses
// the Scratchpad page and the record comes out intact, even when a
// worker starts the aborted record's job only then.
func TestAbortUnsettledRecordConserves(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	const payload = PageSize - TagSize // one page, handed off at its last line
	pt := corpus.Generate(corpus.Text, payload, 9)
	for _, tc := range []struct {
		name  string
		fault bool
	}{{"dsa-fault-last-line", true}, {"abort-queued", false}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 256*1024, 8)
			r.driver.AbortProbe = func() uint64 { return r.dev.Stats().RecordAborts }
			sbuf, _ := r.driver.AllocPages(1)
			dbuf, _ := r.driver.AllocPages(1)
			if _, err := r.hier.Write(0, sbuf, pt); err != nil {
				t.Fatal(err)
			}
			ctx := tlsOffloadContext(t, aesgcm.Encrypt, key, iv, nil, payload)
			jobs := make(chan settleJob, 1)
			if tc.fault {
				inj := fault.New(1)
				inj.Arm("core.dsa", fault.OneShot{N: LinesPerPage})
				r.dev.Faults = inj
				if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, false); !errors.Is(err, ErrDSAFault) {
					t.Fatalf("CompCpy: err = %v, want ErrDSAFault", err)
				}
				r.dev.Faults = nil
			} else {
				// Register and feed every line but the last by hand, so
				// the record is unsettled and queued on the test's
				// channel, not the pool's.
				if _, err := r.driver.register(sbuf, dbuf, PageSize, 1, ctx); err != nil {
					t.Fatal(err)
				}
				tr, _ := r.dev.tt.Lookup(r.driver.localPage(sbuf))
				rec := tr.owner()
				var line [dram.CachelineSize]byte
				for off := uint64(0); off < PageSize-dram.CachelineSize; off += dram.CachelineSize {
					if _, err := r.hier.Channels[0].Ctl.Read(sbuf+off, 0, line[:]); err != nil {
						t.Fatal(err)
					}
				}
				enqueue(jobs, rec)
				r.driver.AbortBuffer(sbuf, 1)
				if rec.phase.Load() == phaseWord(rec.gen-1, phaseQueued) {
					t.Fatal("aborted record left queued")
				}
			}
			checkConserved(t, r.dev)

			// A compression record takes the freed record, its page and
			// Scratchpad page; the aborted record's job starts now.
			data := corpus.Generate(corpus.HTML, MaxCompressInput, 3)
			if _, err := r.hier.Write(0, sbuf, data); err != nil {
				t.Fatal(err)
			}
			comp := &OffloadContext{Op: OpCompress, Length: MaxCompressInput}
			if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, comp, true); err != nil {
				t.Fatal(err)
			}
			lateWorker(jobs)
			page, _, err := r.driver.Use(0, dbuf, PageSize)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := EncodeCompressedPage(data, deflate.NewHWEncoder(deflate.PaperHWConfig()))
			if !bytes.Equal(page, want) {
				t.Fatal("a stale write landed in the reused Scratchpad page")
			}
			checkConserved(t, r.dev)
		})
	}
}

// TestHandedOffRecordsMatchInline runs page-sized TLS records whose
// datapath the device hands to the worker pool, reading each back at
// once, so the device's settle meets the worker at every phase: queued,
// running or done. Every record must match crypto/cipher's GCM.
func TestHandedOffRecordsMatchInline(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	const payload = 2 * PageSize
	sbuf, _ := r.driver.AllocPages(3)
	dbuf, _ := r.driver.AllocPages(3)
	key := []byte("0123456789abcdef")
	for i := 0; i < 24; i++ {
		iv := []byte("abcdefghijk" + string(rune('a'+i)))
		pt := corpus.Generate(corpus.Text, payload, int64(i))
		if _, err := r.hier.Write(0, sbuf, pt); err != nil {
			t.Fatal(err)
		}
		ctx := tlsOffloadContext(t, aesgcm.Encrypt, key, iv, nil, payload)
		if _, err := r.driver.CompCpy(0, dbuf, sbuf, payload+TagSize, ctx, false); err != nil {
			t.Fatal(err)
		}
		got, _, err := r.driver.Use(0, dbuf, payload+TagSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stdSeal(t, key, iv, pt, nil)) {
			t.Fatalf("record %d differs from crypto/cipher", i)
		}
	}
	checkConserved(t, r.dev)
}
