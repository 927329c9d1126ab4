package core

import (
	"runtime"
	"sync"
)

// The TLS DSA's datapath beside the arbiter (Fig. 6 vs Fig. 7). The
// arbiter's decisions (line states, readyAt, ALERT_N, faults, stats)
// stay on the device's thread, in order. A finished record's AES-CTR and
// GHASH (tlsDSA.settle) are pure work on memory the record owns, so the
// last source line of a large encrypt record hands them to a worker and
// the device moves on. Whoever first needs the bytes settles the record:
// the S10 read, the Self-Recycle write, retirePage and abortRecord all
// call settle before they read the record's Scratchpad lines or free
// its pages and DSA (freeRecord runs only after one of the last two).
// Which goroutine ran the datapath never shows in the output: the
// transform is a pure function of the claimed lines.

// minHandOffPayload is the smallest encrypt payload whose datapath goes
// to a worker; smaller records settle inline when first observed. On a
// 2-vCPU host, a prototype that handed kv-zipf-open's 128 B and 1 KiB
// records to the worker lost 9% of that workload's simulated requests
// per host-second, while with this one-page rule it ran 1.07x faster
// than without the split (1.025x for this code, 5 pairs of 20 s runs).
const minHandOffPayload = PageSize

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
	// jobs holds queued hand-offs. A send that finds it full leaves the
	// record to settle inline, so its size only bounds how far the
	// workers may fall behind; 256 records is far more than a device
	// keeps unsettled between its CompCpy and the first read back.
	jobs chan settleJob
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
			j.rec.dsa.(*tlsDSA).settle()
			j.rec.phase.Store(phaseWord(j.gen, phaseIdle))
		}
	}
}

// handOff queues rec's datapath for the pool's workers, if there are
// any. The device must not touch the record's DSA or Scratchpad lines
// again before it calls settle.
func handOff(rec *record) {
	if startDatapathPool() {
		enqueue(datapathPool.jobs, rec)
	}
}

// enqueue marks rec queued and sends it on jobs; when jobs is full the
// record stays with the device.
func enqueue(jobs chan<- settleJob, rec *record) {
	rec.phase.Store(phaseWord(rec.gen, phaseQueued))
	select {
	case jobs <- settleJob{rec, rec.gen}:
	default:
		rec.phase.Store(phaseWord(rec.gen, phaseIdle))
	}
}

// settle runs whatever datapath work rec has pending, on the calling
// (device) thread, unless a worker is already running it: then it waits
// for that worker, which is busy on another core. A queued record no
// worker has started is claimed back and run inline, so the device
// never waits for a goroutine to wake. Records of the other DSAs have
// no deferred work.
func settle(rec *record) {
	t, ok := rec.dsa.(*tlsDSA)
	if !ok {
		return
	}
	queued, running := phaseWord(rec.gen, phaseQueued), phaseWord(rec.gen, phaseRunning)
	for p := rec.phase.Load(); p == queued || p == running; p = rec.phase.Load() {
		if p == queued && rec.phase.CompareAndSwap(queued, phaseWord(rec.gen, phaseIdle)) {
			break
		}
		runtime.Gosched()
	}
	if t.pending() {
		t.settle()
	}
}
