package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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
	enqueue(jobs, rec, rec.gen)
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
				enqueue(jobs, rec, rec.gen)
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

// queueCompress hints data as the source of a one-page compression
// record at sbuf, queueing the hinted unit on a channel of the test's
// own so no worker starts it, then writes data at sbuf and registers
// the record, which adopts the unit. It returns the record, the unit
// and the queue.
func queueCompress(t *testing.T, r *rig, sbuf, dbuf uint64, data []byte) (*record, *frameUnit, chan settleJob) {
	t.Helper()
	jobs := make(chan settleJob, 1)
	u := hintUnit(t, r, jobs, sbuf, data)
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
	if rec.dsa.(*deflateDSA).unit != u {
		t.Fatal("the record did not adopt the unit hinted for its page")
	}
	return rec, u, jobs
}

// hintUnit hints src as the source of a compression record at sbuf,
// queueing its unit on jobs, and returns the unit.
func hintUnit(t *testing.T, r *rig, jobs chan settleJob, sbuf uint64, src []byte) *frameUnit {
	t.Helper()
	page := r.driver.localPage(sbuf)
	r.dev.enc.hint(jobs, page, src)
	i := r.dev.enc.find(page)
	if i < 0 {
		t.Fatal("the hint queued no unit")
	}
	u := r.dev.enc.units[i]
	if u.phase.Load() != phaseWord(u.gen, phaseQueued) {
		t.Fatal("unit not queued")
	}
	return u
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

// TestSettleQueuedCompressRecord checks that a compression record that
// adopted a hinted unit yields the inline path's page whether the S10
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
				rec, u, jobs := queueCompress(t, r, sbuf, dbuf, data)
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
				if p := u.phase.Load(); p == phaseWord(u.gen, phaseQueued) {
					t.Fatal("unit still queued after its record's lines were observed")
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
// between the hint and its rdCAS: the worker frames the stale snapshot,
// so the last line's check must fail and the record must frame the
// bytes the DSA was fed instead.
func TestCompressVerifyCatchesRewrite(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	data := corpus.Generate(corpus.HTML, MaxCompressInput, 12)
	_, _, jobs := queueCompress(t, r, sbuf, dbuf, data)
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

// TestStaleHintFramesFedBytes hints bytes that differ from the staged
// source in one byte, lets the worker frame them, and runs the record
// through CompCpy: the destination must be framePage of the fed bytes,
// and the unit must go back to the device.
func TestStaleHintFramesFedBytes(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	data := corpus.Generate(corpus.HTML, MaxCompressInput, 15)
	hinted := append([]byte(nil), data...)
	hinted[MaxCompressInput-1] ^= 0xFF
	jobs := make(chan settleJob, 1)
	hintUnit(t, r, jobs, sbuf, hinted)
	lateWorker(jobs)
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
	var page [PageSize]byte
	want := framePage(&page, data, deflate.NewHWEncoder(deflate.PaperHWConfig()))
	if !bytes.Equal(got[:len(want)], want) || !bytes.Equal(got[len(want):], make([]byte, PageSize-len(want))) {
		t.Fatal("destination is not framePage of the fed bytes")
	}
	if len(r.dev.enc.units) != 0 || len(r.dev.enc.spare) != 1 {
		t.Fatalf("%d units hinted and %d spare after the record, want 0 and 1", len(r.dev.enc.units), len(r.dev.enc.spare))
	}
	checkConserved(t, r.dev)
}

// units returns every work unit the device holds: hinted, adopted by a
// record still unsettled, or spare.
func units(d *Device) int {
	n := len(d.enc.units) + len(d.enc.spare)
	for _, rec := range d.records {
		if dsa, ok := rec.dsa.(*deflateDSA); ok && dsa.unit != nil {
			n++
		}
	}
	return n
}

// TestHintUnitsConserved hints more pages than the device holds units
// for, replaces a hint, lets hints go stale and registers what is left:
// no unit is lost or made twice, the table never holds more than
// maxUnits, a hint past the bound is skipped until the oldest unit is
// stale, and a replaced hint's worker framed nothing the record sees.
func TestHintUnitsConserved(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	jobs := make(chan settleJob, 4*maxUnits)
	src := func(i int) []byte { return corpus.Generate(corpus.HTML, MaxCompressInput, int64(100+i)) }
	for p := 0; p <= maxUnits; p++ {
		r.dev.enc.hint(jobs, uint64(p), src(p))
	}
	if n := len(r.dev.enc.units); n != maxUnits {
		t.Fatalf("%d units hinted past the bound, want %d", n, maxUnits)
	}
	if r.dev.enc.find(maxUnits) >= 0 {
		t.Fatal("a hint past the bound took a unit from a fresh one")
	}
	if n := units(r.dev); n != maxUnits {
		t.Fatalf("%d units built, want %d", n, maxUnits)
	}

	// A newer hint for page 0 replaces its unit: the same unit, a new
	// incarnation, now the newest.
	old := r.dev.enc.units[0]
	gen := old.gen
	r.dev.enc.hint(jobs, 0, src(1000))
	if i := r.dev.enc.find(0); i != maxUnits-1 || r.dev.enc.units[i] != old || old.gen != gen+1 {
		t.Fatal("a newer hint did not replace its page's unit")
	}
	if n := units(r.dev); n != maxUnits {
		t.Fatalf("%d units after a replaced hint, want %d", n, maxUnits)
	}

	// Hints that never register age the table until its oldest unit is
	// stale; a new page then takes that unit.
	for r.dev.enc.hints+1-r.dev.enc.units[0].hinted <= staleHints {
		r.dev.enc.hint(jobs, 1<<20, src(0)) // the table is full: skipped
		if r.dev.enc.find(1<<20) >= 0 {
			t.Fatal("a hint took the slot of a unit not yet stale")
		}
	}
	stale := r.dev.enc.units[0]
	r.dev.enc.hint(jobs, 1<<20, src(0))
	if i := r.dev.enc.find(1 << 20); i < 0 || r.dev.enc.units[i] != stale {
		t.Fatal("a stale unit kept its slot from a new hint")
	}
	if n := units(r.dev); n != maxUnits {
		t.Fatalf("%d units after a stale one was retaken, want %d", n, maxUnits)
	}

	// Workers frame every queued incarnation; the stale ones find
	// nothing to do. Registering page 0 with the replacing hint's bytes
	// adopts its unit and frames the newer snapshot.
	close(jobs)
	serveDatapath(jobs)
	sbuf, dbuf := uint64(0), uint64(maxUnits+8)*PageSize
	data := src(1000)
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
	if want, _ := EncodeCompressedPage(data, deflate.NewHWEncoder(deflate.PaperHWConfig())); !bytes.Equal(got, want) {
		t.Fatal("the record that adopted a replaced hint's unit differs from the inline framing")
	}
	if n := len(r.dev.enc.units); n != maxUnits-1 {
		t.Fatalf("%d units hinted after page 0 adopted its unit, want %d", n, maxUnits-1)
	}
	if n := units(r.dev); n != maxUnits {
		t.Fatalf("%d units after the record, want %d", n, maxUnits)
	}
	checkConserved(t, r.dev)
}

// TestUnhintedRecordFramesInline registers a compression record no hint
// named: its last source line frames the page at once, the device
// builds no unit, and the page matches the inline framing.
func TestUnhintedRecordFramesInline(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	data := corpus.Generate(corpus.HTML, MaxCompressInput, 16)
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
	tr, _ := r.dev.tt.Lookup(r.driver.localPage(sbuf))
	rec := tr.owner()
	feedSource(t, r, sbuf)
	if rec.dsa.pending() {
		t.Fatal("an unhinted record left its framing pending after its last line")
	}
	if n := units(r.dev); n != 0 {
		t.Fatalf("%d work units built for an unhinted record, want 0", n)
	}
	want, _ := EncodeCompressedPage(data, deflate.NewHWEncoder(deflate.PaperHWConfig()))
	if got := observePage(t, r, dbuf, false); !bytes.Equal(got, want) {
		t.Fatal("destination differs from the inline framing")
	}
}

// TestHintNeedsAWorker hints a page-sized record through Device.Hint:
// with no datapath worker (GOMAXPROCS=1 when the pool started) the hint
// does nothing, and with one it queues a unit. Either way the record
// that registers the page yields the inline framing. ci.sh runs it at
// GOMAXPROCS=1 as well as in the default run.
func TestHintNeedsAWorker(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	r.driver.Hint = r.dev.Hint
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	data := corpus.Generate(corpus.HTML, MaxCompressInput, 17)
	ctx := OffloadContext{Op: OpCompress, Length: len(data)}
	r.driver.Staged(sbuf, ctx, data)
	want := 0
	if startDatapathPool() {
		want = 1
	}
	if n := units(r.dev); n != want {
		t.Fatalf("GOMAXPROCS=%d: %d units after a hint, want %d", runtime.GOMAXPROCS(0), n, want)
	}
	if _, err := r.hier.Write(0, sbuf, data); err != nil {
		t.Fatal(err)
	}
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, &ctx, true); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.driver.Use(0, dbuf, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := EncodeCompressedPage(data, deflate.NewHWEncoder(deflate.PaperHWConfig())); !bytes.Equal(got, w) {
		t.Fatal("destination differs from the inline framing")
	}
	checkConserved(t, r.dev)
}

// TestAbortQueuedCompressRecordConserves tears down a compression record
// whose adopted unit is queued, by a core.dsa fault on its last source
// line (before the claim finishes it) and by an abort op once every line
// is claimed. Either way the device's Scratchpad pages, Config Memory,
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
			_, u, jobs := queueCompress(t, r, sbuf, dbuf, data)
			spare := len(r.dev.enc.spare) + 1 // the record holds one
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
			if u.phase.Load() == phaseWord(u.gen, phaseQueued) {
				t.Fatal("aborted record's unit left queued")
			}
			checkConserved(t, r.dev)
			if n := len(r.dev.enc.spare); n != spare {
				t.Fatalf("%d work units free after the abort, want %d", n, spare)
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
			if n := len(r.dev.enc.spare); n != spare {
				t.Fatalf("%d work units free after the next record, want %d", n, spare)
			}
		})
	}
}

// TestHandedOffCompressRecordsMatchInline runs page-sized compression
// records through CompCpy, each hinted to the device just before it, so
// the worker pool frames them, reading each back at once, so the first
// read meets the worker at every phase. Every page must match the
// inline framing of its input.
func TestHandedOffCompressRecordsMatchInline(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	r.driver.Hint = r.dev.Hint
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	for i := 0; i < 24; i++ {
		data := corpus.Generate(corpus.HTML, MaxCompressInput-i*97, int64(i))
		if _, err := r.hier.Write(0, sbuf, data); err != nil {
			t.Fatal(err)
		}
		ctx := &OffloadContext{Op: OpCompress, Length: len(data)}
		r.driver.Staged(sbuf, *ctx, data)
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
