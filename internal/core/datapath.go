package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim/busy"
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
//   - A TLS encrypt record of any size is handed off after its last
//     source line: a worker runs its AES-CTR and GHASH.
//   - A compression record's framing starts from a hint (hint.go): when
//     the server has staged a record's payload, the device snapshots it
//     into a work unit and queues the unit, and a worker frames the
//     snapshot while the request waits in the server's queue. The
//     record that registers the same page and length adopts the
//     unit, and the claim's last line checks the fed bytes against the
//     snapshot.

// pollWindow bounds how long a worker stays awake after a job: it looks
// at the queue, yielding its core between looks, until this long has
// passed without a job, then parks.
//
// A channel send to a parked worker puts it in the sender's next-run
// slot, and another P must wake to steal it, so a parked worker starts
// a record late: kv-zipf-open's 128 B and 1 KiB records mostly meet
// their first settle 4-16 µs after their last source line, against a
// ~3.4 µs transform, and handing each of them to a worker that parked
// after every job lost 3-9% of its simulated requests per host-second.
// An awake worker takes them at once. On a 2-vCPU host (8 s runs of the
// benchmark), a 200 µs window ran kv-zipf-open 1.14x faster and
// deflate4k-dimm 1.11x; 50 µs gave kv +14% and 20 µs +7%, and ~575 µs
// gained nothing over 200 µs. Without the spare-core rule
// (workerPool.spare) the same poller lost 15% on tls4k-sharded8 at
// 200 µs and 5% at 50 µs.
const pollWindow = 200 * time.Microsecond

// lostCore is the look that tells a worker its core ran something else
// meanwhile: another goroutine its P picked at the yield, or another
// thread the kernel put on its CPU. The busy count (package busy) sees
// only this process's engines, so a worker whose look took longer than
// this parks until its next job and leaves the core to whatever took
// it. A look (a receive that finds nothing, a yield, a clock read)
// takes under 0.5 µs for 99.7% of kv-zipf-open's looks on a 2-vCPU
// host; in 8 s of it this rule ended 253 of ~400,000 windows.
const lostCore = 20 * time.Microsecond

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

// workerPool is a set of workers that run handed-off datapaths,
// serving one channel. The workers hold no state but their framer.
type workerPool struct {
	once sync.Once
	// jobs holds queued jobs. A send that finds it full leaves the job
	// with the device, so its size only bounds how far the workers may
	// fall behind; a device keeps at most maxUnits hinted units and a
	// few records queued.
	jobs chan settleJob
	// awake counts the workers polling jobs.
	awake atomic.Int32
}

// datapathPool is the process-wide pool: GOMAXPROCS-1 workers started
// when the first device is built, serving every device. At GOMAXPROCS=1
// it has none and nothing is handed off. The workers live as long as
// the process, like the runtime's own background goroutines, so the
// pool has no Close.
var datapathPool workerPool

// datapathJobs starts the process-wide pool's workers on first call and
// returns its queue, nil when it has no workers.
func datapathJobs() chan<- settleJob {
	p := &datapathPool
	p.once.Do(func() {
		procs := runtime.GOMAXPROCS(0)
		if procs <= 1 {
			return
		}
		p.jobs = make(chan settleJob, 256)
		for i := 1; i < procs; i++ {
			go p.serve(p.jobs)
		}
	})
	return p.jobs
}

// serve runs queued jobs until jobs is closed. A worker starts parked on
// the channel; after each job it polls for the next one while it may
// stay awake (poll), and parks again once it may not.
func (p *workerPool) serve(jobs <-chan settleJob) {
	var f framer
	for j := range jobs {
		for ok := true; ok; j, ok = p.poll(jobs) {
			j.run(&f)
		}
	}
}

// poll waits awake for the next job, yielding its core between looks,
// and reports false when it gives up (stay) or when jobs is closed.
//
// A yielding goroutine goes to the global run queue, and its P picks it
// again before it steals from another P, so a worker that polled while
// every core had an engine to run would hold the parallel epoch's shard
// goroutines back, and its looks would stay short: the shards wait in
// another P's queue, not its own. Hence the spare-core rule, read at
// GOMAXPROCS as it is when the worker wakes: a worker stays awake only
// while the busy engines and the awake workers, itself included, fit in
// the cores.
func (p *workerPool) poll(jobs <-chan settleJob) (settleJob, bool) {
	procs := runtime.GOMAXPROCS(0)
	if !p.wake(procs) {
		return settleJob{}, false
	}
	defer p.awake.Add(-1)
	start := time.Now()
	for last := time.Duration(0); ; {
		select {
		case j, ok := <-jobs:
			return j, ok
		default:
		}
		runtime.Gosched()
		now := time.Since(start)
		if !p.stay(procs, now, now-last) {
			return settleJob{}, false
		}
		last = now
	}
}

// wake counts the caller as an awake worker when a core is spare for
// it, and reports whether it was.
func (p *workerPool) wake(procs int) bool {
	p.awake.Add(1)
	if p.spare(procs) {
		return true
	}
	p.awake.Add(-1)
	return false
}

// stay reports whether an awake worker that has polled for elapsed, its
// last look taking look, keeps polling: while its window lasts, its
// core stayed its own and a core is still spare.
func (p *workerPool) stay(procs int, elapsed, look time.Duration) bool {
	return elapsed < pollWindow && look < lostCore && p.spare(procs)
}

// spare reports whether the busy engines and the awake workers fit in
// procs cores. The device that queued the job runs on a core of its own
// even when no goroutine is marked busy (one engine on the caller's
// goroutine, or a test driving a device), so the engines count at
// least one.
func (p *workerPool) spare(procs int) bool {
	return max(busy.Engines(), 1)+int(p.awake.Load()) <= procs
}

// run runs the job on a worker. A job the device has already claimed
// back (or retired, which claims it back first) fails the claim and is
// dropped without touching anything else.
func (j settleJob) run(f *framer) {
	p := j.j.phaseWord()
	if p.CompareAndSwap(phaseWord(j.gen, phaseQueued), phaseWord(j.gen, phaseRunning)) {
		j.j.run(f)
		p.Store(phaseWord(j.gen, phaseIdle))
	}
}

// offer hands rec's datapath to the device's queue when there is one
// and its DSA readies work for one. When the queue is full the record
// settles at once, on the device's thread. Once it is queued, the
// device must not touch what the DSA's run uses before it calls settle.
func (d *Device) offer(rec *record) {
	if d.jobs == nil || !rec.dsa.handOff() {
		return
	}
	if !enqueue(d.jobs, rec, rec.gen) {
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
