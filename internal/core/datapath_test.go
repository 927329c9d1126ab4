package core

import (
	"bytes"
	"errors"
	"fmt"
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

// queueCompress registers a one-page compression record of data on the
// rig and queues its datapath on a channel of the test's own, so no
// worker starts it: whatever the pool did at registration is settled
// first, then the DSA snapshots its source page again and is queued.
// It returns the destination base, the record and the queue.
func queueCompress(t *testing.T, r *rig, sbuf, dbuf uint64, data []byte) (*record, chan settleJob) {
	t.Helper()
	if _, err := r.hier.Write(0, sbuf, data); err != nil {
		t.Fatal(err)
	}
	if _, err := r.hier.Flush(sbuf, PageSize); err != nil {
		t.Fatal(err)
	}
	ctx := &OffloadContext{Op: OpCompress, Length: len(data)}
	if _, err := r.driver.register(sbuf, dbuf, PageSize, 1, ctx); err != nil {
		t.Fatal(err)
	}
	tr, ok := r.dev.tt.Lookup(r.driver.localPage(sbuf))
	if !ok || tr.owner() == nil {
		t.Fatal("record not registered")
	}
	rec := tr.owner()
	settle(rec)
	if !rec.dsa.handOff(r.dev.chips, rec.srcPages[0]) {
		t.Fatal("a page-sized compression record readied no datapath")
	}
	jobs := make(chan settleJob, 1)
	if !enqueue(jobs, rec) {
		t.Fatal("record not queued")
	}
	return rec, jobs
}

// feedSource reads every source line of the page at sbuf through the
// controller, so the device feeds them to the DSA in order (S6).
func feedSource(t *testing.T, r *rig, sbuf uint64) {
	t.Helper()
	var line [dram.CachelineSize]byte
	for off := uint64(0); off < PageSize; off += dram.CachelineSize {
		if _, err := r.hier.Channels[0].Ctl.Read(sbuf+off, 0, line[:]); err != nil {
			t.Fatal(err)
		}
	}
}

// observePage returns the destination page at dbuf as the controller
// reads it: by S10 reads of the ready lines, or after a Self-Recycle
// writeback of each line, when the reads are served by the chips.
func observePage(t *testing.T, r *rig, dbuf uint64, selfRecycle bool) []byte {
	t.Helper()
	ctl := r.hier.Channels[0].Ctl
	if selfRecycle {
		junk := bytes.Repeat([]byte{0xAA}, dram.CachelineSize)
		for off := uint64(0); off < PageSize; off += dram.CachelineSize {
			if _, err := ctl.Write(dbuf+off, 0, junk); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ctl.DrainWrites(); err != nil {
			t.Fatal(err)
		}
	}
	page := make([]byte, PageSize)
	for off := 0; off < PageSize; off += dram.CachelineSize {
		if _, err := ctl.Read(dbuf+uint64(off), 0, page[off:off+dram.CachelineSize]); err != nil {
			t.Fatal(err)
		}
	}
	return page
}

// TestSettleQueuedCompressRecord checks that a compression record handed
// off at registration yields the inline path's page whether the S10
// read or the Self-Recycle write observes it first, and whether the
// worker framed the snapshot before that or starts only after it, when
// it must change nothing.
func TestSettleQueuedCompressRecord(t *testing.T) {
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	for _, selfRecycle := range []bool{false, true} {
		for _, workerFirst := range []bool{false, true} {
			name := fmt.Sprintf("selfRecycle=%v/workerFirst=%v", selfRecycle, workerFirst)
			t.Run(name, func(t *testing.T) {
				r := newRig(t, 256*1024, 8)
				sbuf, _ := r.driver.AllocPages(1)
				dbuf, _ := r.driver.AllocPages(1)
				data := corpus.Generate(corpus.HTML, MaxCompressInput, 11)
				rec, jobs := queueCompress(t, r, sbuf, dbuf, data)
				feedSource(t, r, sbuf)
				if !rec.dsa.pending() {
					t.Fatal("record settled before it was observed")
				}
				if workerFirst {
					lateWorker(jobs)
				}
				got := observePage(t, r, dbuf, selfRecycle)
				want, _ := EncodeCompressedPage(data, enc)
				if !bytes.Equal(got, want) {
					t.Fatal("destination differs from the inline path's page")
				}
				if p := rec.phase.Load(); p == phaseWord(rec.gen, phaseQueued) {
					t.Fatal("record still queued after its lines were observed")
				}
				if !workerFirst {
					lateWorker(jobs)
					if got := observePage(t, r, dbuf, false); !bytes.Equal(got, want) {
						t.Fatal("destination changed after the late worker ran")
					}
				}
			})
		}
	}
}

// TestCompressVerifyCatchesRewrite rewrites a source line in DRAM
// between registration and its rdCAS: the worker frames the stale
// snapshot, so the last line's check must fail and settle must frame the
// bytes the DSA was fed instead.
func TestCompressVerifyCatchesRewrite(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	data := corpus.Generate(corpus.HTML, MaxCompressInput, 12)
	_, jobs := queueCompress(t, r, sbuf, dbuf, data)
	lateWorker(jobs) // frames the snapshot of data

	fed := append([]byte(nil), data...)
	const at = 17 * dram.CachelineSize
	copy(fed[at:], bytes.Repeat([]byte("rewritten!"), 7)[:dram.CachelineSize])
	ctl := r.hier.Channels[0].Ctl
	if _, err := ctl.Write(sbuf+at, 0, fed[at:at+dram.CachelineSize]); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.DrainWrites(); err != nil {
		t.Fatal(err)
	}
	if r.dev.Stats().SourceWrites == 0 {
		t.Fatal("the rewrite did not reach the registered source page")
	}
	feedSource(t, r, sbuf)

	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	want, _ := EncodeCompressedPage(fed, enc)
	stale, _ := EncodeCompressedPage(data, enc)
	if bytes.Equal(want, stale) {
		t.Fatal("the rewrite does not change the page; the test checks nothing")
	}
	if got := observePage(t, r, dbuf, false); !bytes.Equal(got, want) {
		t.Fatal("destination is not the page of the fed bytes")
	}
}

// TestAbortQueuedCompressRecordConserves tears down a compression record
// whose datapath is queued, by a core.dsa fault on its last source line
// (before the claim finishes it) and by an abort op once every line is
// claimed. Either way the device's Scratchpad pages, Config Memory,
// Translation Table, records and work units are conserved, and a record
// that reuses them comes out intact even when the aborted record's job
// starts only then.
func TestAbortQueuedCompressRecordConserves(t *testing.T) {
	for _, dsaFault := range []bool{true, false} {
		t.Run(fmt.Sprintf("dsaFault=%v", dsaFault), func(t *testing.T) {
			r := newRig(t, 256*1024, 8)
			r.driver.AbortProbe = func() uint64 { return r.dev.Stats().RecordAborts }
			sbuf, _ := r.driver.AllocPages(1)
			dbuf, _ := r.driver.AllocPages(1)
			data := corpus.Generate(corpus.HTML, MaxCompressInput, 13)
			rec, jobs := queueCompress(t, r, sbuf, dbuf, data)
			units := len(r.dev.enc.work) + 1 // the queued record holds one
			if dsaFault {
				inj := fault.New(1)
				inj.Arm("core.dsa", fault.OneShot{N: LinesPerPage})
				r.dev.Faults = inj
				feedSource(t, r, sbuf)
				r.dev.Faults = nil
			} else {
				feedSource(t, r, sbuf)
				r.driver.AbortBuffer(sbuf, 1)
			}
			if r.dev.Stats().RecordAborts != 1 {
				t.Fatalf("%d record aborts, want 1", r.dev.Stats().RecordAborts)
			}
			if rec.phase.Load() == phaseWord(rec.gen-1, phaseQueued) {
				t.Fatal("aborted record left queued")
			}
			checkConserved(t, r.dev)
			if n := len(r.dev.enc.work); n != units {
				t.Fatalf("%d work units free after the abort, want %d", n, units)
			}

			next := corpus.Generate(corpus.Text, MaxCompressInput, 14)
			if _, err := r.hier.Write(0, sbuf, next); err != nil {
				t.Fatal(err)
			}
			ctx := &OffloadContext{Op: OpCompress, Length: MaxCompressInput}
			if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
				t.Fatal(err)
			}
			lateWorker(jobs)
			page, _, err := r.driver.Use(0, dbuf, PageSize)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := EncodeCompressedPage(next, deflate.NewHWEncoder(deflate.PaperHWConfig()))
			if !bytes.Equal(page, want) {
				t.Fatal("the next record's page is not intact")
			}
			checkConserved(t, r.dev)
			if n := len(r.dev.enc.work); n != units {
				t.Fatalf("%d work units free after the next record, want %d", n, units)
			}
		})
	}
}

// TestHandedOffCompressRecordsMatchInline runs page-sized compression
// records through CompCpy, whose datapath the device hands to the worker
// pool at registration, reading each back at once, so the first read
// meets the worker at every phase. Every page must match the inline
// framing of its input.
func TestHandedOffCompressRecordsMatchInline(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	for i := 0; i < 24; i++ {
		data := corpus.Generate(corpus.HTML, MaxCompressInput-i*97, int64(i))
		if _, err := r.hier.Write(0, sbuf, data); err != nil {
			t.Fatal(err)
		}
		ctx := &OffloadContext{Op: OpCompress, Length: len(data)}
		if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
			t.Fatal(err)
		}
		got, _, err := r.driver.Use(0, dbuf, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := EncodeCompressedPage(data, enc); !bytes.Equal(got, want) {
			t.Fatalf("record %d differs from the inline framing", i)
		}
	}
	checkConserved(t, r.dev)
}
