// Package sched provides the parallel runtime used by every GBDT engine in
// this repository: a bounded worker pool with dynamically scheduled
// parallel-for loops and task sets, a spin mutex for the ASYNC mode, and
// instrumentation that records how much worker time is spent doing useful
// work versus waiting at end-of-region barriers.
//
// The instrumentation substitutes for the Intel VTune hardware profiling the
// paper uses: "Average CPU Utilization" maps to Utilization() (busy worker
// time over wall time x workers) and "OpenMP Barrier Overhead" maps to
// BarrierOverhead() (barrier wait time over total worker time). Both are
// measured, not sampled, so they are deterministic enough for tests.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harpgbdt/internal/obs"
	"harpgbdt/internal/perf"
)

// Stats accumulates instrumentation over the lifetime of a Pool (or between
// Reset calls). All fields are totals across workers.
type Stats struct {
	// Regions is the number of parallel regions executed. Each region ends
	// with one barrier, so this is also the synchronization count the paper
	// tracks (O(2^D) for leaf-by-leaf engines).
	Regions int64
	// Tasks is the number of scheduled work items (chunks or explicit tasks).
	Tasks int64
	// BusyNanos is worker time spent inside region bodies.
	BusyNanos int64
	// WaitNanos is worker time spent at end-of-region barriers, i.e. the gap
	// between a worker finishing its share and the slowest worker finishing.
	WaitNanos int64
	// WallNanos is wall-clock time covered by parallel regions (simulated
	// wall time on virtual pools).
	WallNanos int64
	// SerialNanos is the real CPU time spent executing region bodies on a
	// virtual pool (bodies run serially there). Zero on real pools.
	SerialNanos int64
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Regions += o.Regions
	s.Tasks += o.Tasks
	s.BusyNanos += o.BusyNanos
	s.WaitNanos += o.WaitNanos
	s.WallNanos += o.WallNanos
	s.SerialNanos += o.SerialNanos
}

// Utilization is the software analog of average CPU utilization: the
// fraction of available worker-seconds inside parallel regions that was
// spent executing region bodies. Returns 0 when nothing ran.
func (s Stats) Utilization(workers int) float64 {
	if s.WallNanos == 0 || workers <= 0 {
		return 0
	}
	return float64(s.BusyNanos) / (float64(s.WallNanos) * float64(workers))
}

// BarrierOverhead is the software analog of OpenMP barrier overhead: barrier
// wait time as a fraction of total worker time (busy + waiting).
func (s Stats) BarrierOverhead() float64 {
	tot := s.BusyNanos + s.WaitNanos
	if tot == 0 {
		return 0
	}
	return float64(s.WaitNanos) / float64(tot)
}

func (s Stats) String() string {
	return fmt.Sprintf("regions=%d tasks=%d busy=%v wait=%v wall=%v",
		s.Regions, s.Tasks, time.Duration(s.BusyNanos), time.Duration(s.WaitNanos), time.Duration(s.WallNanos))
}

// Pool runs parallel regions on a fixed number of workers. The zero value is
// not usable; construct with NewPool. A Pool is safe for use by one region
// at a time; regions themselves fan out to Workers() goroutines.
type Pool struct {
	workers int
	virtual bool
	cost    CostModel

	// acc, when non-nil, receives per-worker wait-state accounting for
	// every region: participants get Work + BarrierWait covering the
	// region span, non-participants get Idle for the same span, so
	// per-worker state sums conserve wall time by construction.
	acc *perf.Accounting

	mu     sync.Mutex
	stats  Stats
	vclock int64

	fail failState
}

// NewPool returns a pool with the given parallel width. workers <= 0 selects
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the parallel width of the pool.
func (p *Pool) Workers() int { return p.workers }

// SetAccounting attaches a per-worker wait-state ledger (nil detaches).
// The ledger's worker count should match the pool's.
func (p *Pool) SetAccounting(a *perf.Accounting) { p.acc = a }

// Accounting returns the attached ledger (nil when accounting is off).
func (p *Pool) Accounting() *perf.Accounting { return p.acc }

// accountRegion attributes one barrier region to the ledger: the nw
// participants' finish offsets become Work, the gap to the slowest
// participant becomes BarrierWait, and non-participating workers are
// Idle for the whole span.
func (p *Pool) accountRegion(finish []int64, last int64) {
	a := p.acc
	if a == nil {
		return
	}
	for w, f := range finish {
		a.Add(w, perf.Work, f)
		a.Add(w, perf.BarrierWait, last-f)
	}
	for w := len(finish); w < p.workers; w++ {
		a.Add(w, perf.Idle, last)
	}
}

// accountSerial attributes a serial fallback region: worker 0 works for
// the whole span, every other worker is idle for it.
func (p *Pool) accountSerial(busy int64) {
	a := p.acc
	if a == nil {
		return
	}
	a.Add(0, perf.Work, busy)
	for w := 1; w < p.workers; w++ {
		a.Add(w, perf.Idle, busy)
	}
}

// Stats returns a snapshot of the accumulated instrumentation.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats clears the accumulated instrumentation.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

func (p *Pool) record(regions, tasks, busy, wait, wall int64) {
	p.mu.Lock()
	p.stats.Regions += regions
	p.stats.Tasks += tasks
	p.stats.BusyNanos += busy
	p.stats.WaitNanos += wait
	p.stats.WallNanos += wall
	p.mu.Unlock()
}

// ParallelFor executes body(lo, hi, worker) over chunks of [0, n) of size
// chunk, dynamically scheduled across the pool's workers, and waits for all
// of them (one barrier). chunk <= 0 selects an even static split (n/workers,
// at least 1). body may be called concurrently from distinct workers;
// worker identifies the executing worker in [0, Workers()).
func (p *Pool) ParallelFor(n, chunk int, body func(lo, hi, worker int)) {
	if sp := obs.StartSpan("sched", "parallel-for"); sp.Active() {
		defer sp.End()
	}
	if n <= 0 {
		p.record(1, 0, 0, 0, 0)
		return
	}
	if chunk <= 0 {
		chunk = (n + p.workers - 1) / p.workers
	}
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	if p.virtual {
		p.runVirtual(nChunks, func(c, w int) {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(lo, hi, w)
		})
		return
	}
	if p.workers == 1 || nChunks == 1 {
		start := time.Now()
		for lo := 0; lo < n; lo += chunk {
			if p.fail.stopped.Load() {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(lo, hi, 0)
		}
		busy := time.Since(start).Nanoseconds()
		p.accountSerial(busy)
		p.record(1, int64(nChunks), busy, 0, busy)
		return
	}

	nw := p.workers
	if nw > nChunks {
		nw = nChunks
	}
	var next int64
	finish := make([]int64, nw) // ns since start, per worker
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			defer p.recoverWorker(w)
			for !p.draining() {
				c := int(atomic.AddInt64(&next, 1)) - 1
				if c >= nChunks {
					break
				}
				if err := workerFault(); err != nil {
					panic(err)
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi, w)
			}
			finish[w] = time.Since(start).Nanoseconds()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Nanoseconds()
	var busy, wait, last int64
	for _, f := range finish {
		if f > last {
			last = f
		}
	}
	for _, f := range finish {
		busy += f
		wait += last - f
	}
	p.accountRegion(finish, last)
	p.record(1, int64(nChunks), busy, wait, wall)
	p.rethrow()
}

// ParallelForAtLeast is ParallelFor with a serial fast path for small
// inputs: when n < minParallel the body runs inline on worker 0 with no
// goroutine handoff — the serving path uses it so single-row requests
// skip the fan-out cost while large batches still fill the pool.
// Virtual pools always take the simulated-parallel path (the virtual
// clock needs every region to pass through it).
func (p *Pool) ParallelForAtLeast(n, minParallel, chunk int, body func(lo, hi, worker int)) {
	if n > 0 && n < minParallel && !p.virtual {
		if p.fail.stopped.Load() {
			return
		}
		start := time.Now()
		body(0, n, 0)
		busy := time.Since(start).Nanoseconds()
		p.accountSerial(busy)
		p.record(1, 1, busy, 0, busy)
		return
	}
	p.ParallelFor(n, chunk, body)
}

// RunTasks executes each task once, dynamically scheduled across the
// workers, and waits for all (one barrier). The worker index is passed to
// each task.
func (p *Pool) RunTasks(tasks []func(worker int)) {
	if sp := obs.StartSpan("sched", "run-tasks"); sp.Active() {
		defer sp.End()
	}
	n := len(tasks)
	if n == 0 {
		p.record(1, 0, 0, 0, 0)
		return
	}
	if p.virtual {
		p.runVirtual(n, func(i, w int) { tasks[i](w) })
		return
	}
	if p.workers == 1 || n == 1 {
		start := time.Now()
		for _, t := range tasks {
			if p.fail.stopped.Load() {
				break
			}
			t(0)
		}
		busy := time.Since(start).Nanoseconds()
		p.accountSerial(busy)
		p.record(1, int64(n), busy, 0, busy)
		return
	}
	nw := p.workers
	if nw > n {
		nw = n
	}
	var next int64
	finish := make([]int64, nw)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			defer p.recoverWorker(w)
			for !p.draining() {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					break
				}
				if err := workerFault(); err != nil {
					panic(err)
				}
				tasks[i](w)
			}
			finish[w] = time.Since(start).Nanoseconds()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Nanoseconds()
	var busy, wait, last int64
	for _, f := range finish {
		if f > last {
			last = f
		}
	}
	for _, f := range finish {
		busy += f
		wait += last - f
	}
	p.accountRegion(finish, last)
	p.record(1, int64(n), busy, wait, wall)
	p.rethrow()
}

// RunWorkers starts exactly Workers() copies of body and waits for all of
// them. It is the building block of the ASYNC mode, where each worker loops
// over a shared queue instead of being handed pre-partitioned tasks; the
// region therefore counts one barrier total, regardless of how many tree
// nodes are processed inside.
func (p *Pool) RunWorkers(body func(worker int)) {
	if sp := obs.StartSpan("sched", "run-workers"); sp.Active() {
		defer sp.End()
	}
	nw := p.workers
	if p.virtual {
		// Virtual pools never express shared-queue parallelism through
		// RunWorkers: the ASYNC engine steps its worker loop from a
		// discrete-event clock itself and reports the region through
		// RecordExternalRegion. Running the bodies sequentially here keeps
		// the call safe if it happens anyway.
		p.runVirtual(nw, func(i, w int) { body(w) })
		return
	}
	if nw == 1 {
		start := time.Now()
		body(0)
		busy := time.Since(start).Nanoseconds()
		p.record(1, 1, busy, 0, busy)
		return
	}
	finish := make([]int64, nw)
	began := make([]int64, nw)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			defer p.recoverWorker(w)
			began[w] = time.Since(start).Nanoseconds()
			body(w)
			finish[w] = time.Since(start).Nanoseconds()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Nanoseconds()
	var busy, wait, last int64
	for _, f := range finish {
		if f > last {
			last = f
		}
	}
	for _, f := range finish {
		busy += f
		wait += last - f
	}
	// RunWorkers bodies attribute their own time through perf cursors
	// (the ASYNC loop's Work/SpinWait/QueueWait states); the scheduler
	// completes each worker's span to the full region: the launch gap
	// before the goroutine first ran (the whole region, on one core, when
	// another worker finishes everything first) is Idle, and the tail to
	// the slowest worker's finish is BarrierWait.
	if a := p.acc; a != nil {
		for w, f := range finish {
			a.Add(w, perf.Idle, began[w])
			a.Add(w, perf.BarrierWait, last-f)
		}
	}
	p.record(1, int64(nw), busy, wait, wall)
	p.rethrow()
}
