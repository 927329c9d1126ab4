package core

import (
	"runtime"
	"sync"
)

// The DSAs' datapath beside the arbiter (Fig. 6 vs Fig. 7). Every DSA
// has two halves (dsaInstance). The claim, ProcessSourceLine, runs on
// the device's thread, in order, and decides everything the arbiter
// observes: line order and range, every error the record can raise,
// which destination lines turn ready and their readyAt. The datapath is
// pure work on memory the record owns, so it may run later and on
// another core: a DSA whose handOff readies it queues the record on a
// process-wide worker pool, a worker runs the DSA's run, and the device
// moves on. Whoever first needs the bytes settles the record: the S10
// read, the Self-Recycle write, retirePage and abortRecord all call
// settle before they read the record's Scratchpad lines or free its
// pages and DSA (freeRecord runs only after one of the last two). Which
// goroutine ran the datapath never shows in the output: it is a pure
// function of the claimed lines.
//
// A TLS encrypt record of at least minHandOffPayload bytes is handed
// off after its last source line: a worker runs its AES-CTR and GHASH.
// A compression record of at least minCompressHandOff bytes is handed
// off at registration: a worker frames a snapshot of its source page,
// and the claim's last line checks the fed bytes against the snapshot.

// minHandOffPayload is the smallest encrypt payload whose datapath goes
// to a worker; smaller records settle inline when first observed. On a
// 2-vCPU host, a prototype that handed kv-zipf-open's 128 B and 1 KiB
// records to the worker lost 9% of that workload's simulated requests
// per host-second, while with this one-page rule it ran 1.07x faster
// than without the split (1.025x for this code, 5 pairs of 20 s runs).
const minHandOffPayload = PageSize

// minCompressHandOff is the smallest compression input whose datapath
// goes to a worker; smaller records frame inline at their last line,
// like the 4-byte second record of each deflate4k-dimm request. On a
// 2-vCPU host the worker starts 9-12 us after registration, the
// record is first observed about 0.45 us per source line later, and
// deflating costs about 11 ns per byte, so the wait at the first
// observation beats framing inline from about 1.3 KB. A throwaway test
// that timed 300 records of each length through CompCpy and the first
// read back, with and without the hand-off (medians of 7 rounds, two
// rounds each), measured 0.83-1.25x at 256 B-1 KiB and 0.96-1.23x at
// 1.5-4 KiB, so the hand-off starts at half a page.
const minCompressHandOff = PageSize / 2

// Hand-off phases, kept in the low bits of record.phase beside the
// record's incarnation (gen). A phase word naming an older gen reads as
// idle.
const (
	phaseIdle    = iota // the device's thread owns the datapath
	phaseQueued         // handed off, no worker has started it
	phaseRunning        // a worker is running it
	phaseBits    = 2
)

func phaseWord(gen uint64, phase uint64) uint64 { return gen<<phaseBits | phase }

// settleJob names one record incarnation whose datapath is queued.
type settleJob struct {
	rec *record
	gen uint64
}

// datapathPool is the process-wide set of workers that run handed-off
// datapaths: GOMAXPROCS-1 goroutines started on first use, serving one
// channel for every device. At GOMAXPROCS=1 it has none and nothing is
// handed off. The workers hold no state of their own and live as long
// as the process, like the runtime's own background goroutines, so the
// pool has no Close.
var datapathPool struct {
	once sync.Once
	// jobs holds queued hand-offs. A send that finds it full settles the
	// record inline, so its size only bounds how far the workers may
	// fall behind; 256 records is far more than a device keeps
	// unsettled between its CompCpy and the first read back.
	jobs chan settleJob
	// nudge is received by one idle goroutine; see nudge.
	nudge chan struct{}
}

// startDatapathPool starts the workers on first use and reports whether
// there are any.
func startDatapathPool() bool {
	datapathPool.once.Do(func() {
		n := runtime.GOMAXPROCS(0) - 1
		if n <= 0 {
			return
		}
		datapathPool.jobs = make(chan settleJob, 256)
		datapathPool.nudge = make(chan struct{})
		go func() {
			for range datapathPool.nudge {
			}
		}()
		for i := 0; i < n; i++ {
			go serveDatapath(datapathPool.jobs)
		}
	})
	return datapathPool.jobs != nil
}

// serveDatapath runs queued datapaths. A job whose record the device
// has already settled (or retired, which settles first) fails the
// claim and is dropped without touching the record.
func serveDatapath(jobs <-chan settleJob) {
	for j := range jobs {
		if j.rec.phase.CompareAndSwap(phaseWord(j.gen, phaseQueued), phaseWord(j.gen, phaseRunning)) {
			j.rec.dsa.run()
			j.rec.phase.Store(phaseWord(j.gen, phaseIdle))
		}
	}
}

// offer hands rec's datapath to the pool's workers when there are any
// and its DSA readies work for one, and reports whether it queued the
// record. When the queue is full the record settles at once, on the
// device's thread. Once it is queued, the device must not touch what
// the DSA's run uses before it calls settle.
func (d *Device) offer(rec *record) bool {
	if !startDatapathPool() || !rec.dsa.handOff(d.chips, rec.srcPages[0]) {
		return false
	}
	if !enqueue(datapathPool.jobs, rec) {
		settle(rec)
		return false
	}
	return true
}

// nudge makes the worker a hand-off just woke start at once. The send
// readied it in this P's next-run slot, which an idle P takes only
// after a back-off that timer slack stretches to about 50 us
// (runtime.runqgrab). Readying the idle nudge goroutine takes that slot
// and moves the worker to the P's queue, which an idle P steals from at
// once: on a 2-vCPU host it starts ~12 us after the send instead of
// 60-250 us.
func nudge() {
	select {
	case datapathPool.nudge <- struct{}{}:
	default:
	}
}

// enqueue marks rec queued and sends it on jobs, reporting whether it
// went; when jobs is full the record stays with the device.
func enqueue(jobs chan<- settleJob, rec *record) bool {
	rec.phase.Store(phaseWord(rec.gen, phaseQueued))
	select {
	case jobs <- settleJob{rec, rec.gen}:
		return true
	default:
		rec.phase.Store(phaseWord(rec.gen, phaseIdle))
		return false
	}
}

// settle runs whatever datapath work rec has pending, on the calling
// (device) thread, unless a worker is already running it: then it waits
// for that worker, which is busy on another core. A queued record no
// worker has started is claimed back and run inline, so the device
// never waits for a goroutine to wake.
func settle(rec *record) {
	if rec.dsa == nil {
		return
	}
	queued, running := phaseWord(rec.gen, phaseQueued), phaseWord(rec.gen, phaseRunning)
	for p := rec.phase.Load(); p == queued || p == running; p = rec.phase.Load() {
		if p == queued && rec.phase.CompareAndSwap(queued, phaseWord(rec.gen, phaseIdle)) {
			break
		}
		runtime.Gosched()
	}
	if rec.dsa.pending() {
		rec.dsa.settle()
	}
}
