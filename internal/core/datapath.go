package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The DSAs' datapath beside the arbiter (Fig. 6 vs Fig. 7). Every DSA
// has two halves (dsaInstance). The claim, ProcessSourceLine, runs on
// the device's thread, in order, and decides everything the arbiter
// observes: line order and range, every error the record can raise,
// which destination lines turn ready and their readyAt. The datapath is
// pure work on memory the device owns, so it may run earlier or later
// and on another core: the device queues a job on a process-wide worker
// pool, a worker runs it, and the device moves on. Whoever first needs
// the bytes settles the record: the S10 read, the Self-Recycle write,
// retirePage and abortRecord all call settle before they read the
// record's Scratchpad lines or free its pages and DSA (freeRecord runs
// only after one of the last two). Which goroutine ran the datapath
// never shows in the output: it is a pure function of the claimed
// lines.
//
// There are two kinds of job, on one queue and one phase protocol:
//
//   - A TLS encrypt record of at least minHandOffPayload bytes is
//     handed off after its last source line: a worker runs its AES-CTR
//     and GHASH.
//   - A compression record's framing starts from a hint (hint.go): when
//     the server has staged a record's payload, the device snapshots it
//     into a work unit and queues the unit, and a worker frames the
//     snapshot while the request waits in the server's queue. The
//     record that registers the same page and length adopts the
//     unit, and the claim's last line checks the fed bytes against the
//     snapshot.

// minHandOffPayload is the smallest encrypt payload whose datapath goes
// to a worker; smaller records settle inline when first observed. On a
// 2-vCPU host, a prototype that handed kv-zipf-open's 128 B and 1 KiB
// records to the worker lost 9% of that workload's simulated requests
// per host-second, while with this one-page rule it ran 1.07x faster
// than without the split (1.025x for this code, 5 pairs of 20 s runs).
const minHandOffPayload = PageSize

// Hand-off phases, kept in the low bits of a job's phase word beside
// the incarnation (gen) it was queued for. A phase word naming an older
// gen reads as idle.
const (
	phaseIdle    = iota // the device's thread owns the datapath
	phaseQueued         // handed off, no worker has started it
	phaseRunning        // a worker is running it
	phaseBits    = 2
)

func phaseWord(gen uint64, phase uint64) uint64 { return gen<<phaseBits | phase }

// job is datapath work the pool runs: a record's DSA datapath or a
// hinted compression unit's framing. Its phase word is the only state a
// worker reads before it claims the job.
type job interface {
	phaseWord() *atomic.Uint64
	// run does the work on a worker, with the worker's own framer.
	run(f *framer)
}

// settleJob names one incarnation of a queued job.
type settleJob struct {
	j   job
	gen uint64
}

// datapathPool is the process-wide set of workers that run handed-off
// datapaths: GOMAXPROCS-1 goroutines started on first use, serving one
// channel for every device. At GOMAXPROCS=1 it has none and nothing is
// handed off. The workers hold no state but their framer and live as
// long as the process, like the runtime's own background goroutines, so
// the pool has no Close.
var datapathPool struct {
	once sync.Once
	// jobs holds queued jobs. A send that finds it full leaves the job
	// with the device, so its size only bounds how far the workers may
	// fall behind; a device keeps at most maxUnits hinted units and a
	// few records queued.
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

// serveDatapath runs queued jobs. A job the device has already claimed
// back (or retired, which claims it back first) fails the claim and is
// dropped without touching anything else.
func serveDatapath(jobs <-chan settleJob) {
	var f framer
	for j := range jobs {
		p := j.j.phaseWord()
		if p.CompareAndSwap(phaseWord(j.gen, phaseQueued), phaseWord(j.gen, phaseRunning)) {
			j.j.run(&f)
			p.Store(phaseWord(j.gen, phaseIdle))
		}
	}
}

// offer hands rec's datapath to the pool's workers when there are any
// and its DSA readies work for one. When the queue is full the record
// settles at once, on the device's thread. Once it is queued, the
// device must not touch what the DSA's run uses before it calls settle.
func (d *Device) offer(rec *record) {
	if !startDatapathPool() || !rec.dsa.handOff() {
		return
	}
	if !enqueue(datapathPool.jobs, rec, rec.gen) {
		settle(rec)
	}
}

// enqueue marks j queued as incarnation gen and sends it on jobs,
// reporting whether it went; when jobs is full it stays with the
// device.
func enqueue(jobs chan<- settleJob, j job, gen uint64) bool {
	p := j.phaseWord()
	p.Store(phaseWord(gen, phaseQueued))
	select {
	case jobs <- settleJob{j, gen}:
		return true
	default:
		p.Store(phaseWord(gen, phaseIdle))
		return false
	}
}

// reclaim returns once no worker runs the job queued as incarnation gen
// on the phase word p. A queued job no worker has started is claimed
// back for the device's thread, so the device never waits for a
// goroutine to wake; a running one is waited out, busy on another core.
func reclaim(p *atomic.Uint64, gen uint64) {
	queued, running := phaseWord(gen, phaseQueued), phaseWord(gen, phaseRunning)
	for w := p.Load(); w == queued || w == running; w = p.Load() {
		if w == queued && p.CompareAndSwap(queued, phaseWord(gen, phaseIdle)) {
			return
		}
		runtime.Gosched()
	}
}

// settle runs whatever datapath work rec has pending on the calling
// (device) thread, once no worker runs it.
func settle(rec *record) {
	if rec.dsa == nil {
		return
	}
	reclaim(&rec.phase, rec.gen)
	if rec.dsa.pending() {
		rec.dsa.settle()
	}
}

// phaseWord and run make a record a job: its DSA's datapath.
func (r *record) phaseWord() *atomic.Uint64 { return &r.phase }
func (r *record) run(*framer)               { r.dsa.run() }
