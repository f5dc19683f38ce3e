package sched

import (
	"time"

	"harpgbdt/internal/perf"
)

// CostModel parameterizes the virtual parallel machine: the synthetic costs
// charged by the simulator for the parallel-runtime operations that a real
// multicore machine would pay. The defaults approximate an OpenMP-class
// runtime on a ~32-thread Xeon (the paper's testbed): forking and joining a
// parallel region costs several microseconds, dispatching one dynamic task
// costs on the order of a hundred nanoseconds, and one contended spin-lock
// acquisition costs a few hundred nanoseconds.
type CostModel struct {
	// RegionForkJoin is charged once per parallel region (the "OpenMP
	// barrier overhead" unit: thread wake-up plus end-of-loop barrier).
	RegionForkJoin time.Duration
	// TaskDispatch is charged on the executing worker per dynamic task
	// (work-queue pop, cache warm-up).
	TaskDispatch time.Duration
	// SpinLock is charged per lock acquisition in the simulated ASYNC mode
	// (shared queue and tree updates).
	SpinLock time.Duration
}

// DefaultCostModel returns the calibration used by the experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		RegionForkJoin: 8 * time.Microsecond,
		TaskDispatch:   150 * time.Nanosecond,
		SpinLock:       300 * time.Nanosecond,
	}
}

// orDefault fills zero fields from the default model. A fully zero model
// stays zero only if the caller explicitly built it that way via
// ZeroCostModel.
func (c CostModel) orDefault() CostModel {
	d := DefaultCostModel()
	if c == (CostModel{}) {
		return d
	}
	return c
}

// ZeroCostModel disables all synthetic charges (useful for ablations).
func ZeroCostModel() CostModel {
	return CostModel{RegionForkJoin: 1} // 1ns: non-zero marker, effectively free
}

// NewVirtualPool returns a pool that simulates `workers`-way parallelism on
// any physical machine: region bodies execute serially (so no task
// disturbs another's measurement), and a list-scheduling replay assigns
// each task, in order, to the virtual worker whose clock is earliest,
// advancing that clock by the task's measured time.Since duration plus
// the cost model's synthetic overheads. The simulated wall-clock
// accumulates in VirtualNanos and the usual Stats carry the simulated
// busy/wait/wall times. The durations are real clock readings, so the
// replayed schedule, the worker index each task runs under, and every
// figure derived from them can differ from run to run.
//
// This is the substitute for the paper's 36-core Xeon: the host running
// this reproduction may have any number of cores (including one), yet the
// parallel-efficiency experiments remain meaningful.
func NewVirtualPool(workers int, cost CostModel) *Pool {
	p := NewPool(workers)
	if workers <= 0 {
		p.workers = 32 // the paper's thread count
	}
	p.virtual = true
	p.cost = cost.orDefault()
	return p
}

// Virtual reports whether the pool simulates parallelism.
func (p *Pool) Virtual() bool { return p.virtual }

// Cost returns the pool's cost model (zero value for real pools).
func (p *Pool) Cost() CostModel { return p.cost }

// VirtualNanos returns the accumulated simulated wall-clock time of all
// regions executed so far (0 for real pools).
func (p *Pool) VirtualNanos() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vclock
}

// RecordExternalRegion merges an externally simulated region (the ASYNC
// discrete-event simulation in the core engine) into the pool's stats and
// virtual clock. serial is the real CPU time spent executing the region's
// work serially; busy/wait/wall are the simulated worker times.
func (p *Pool) RecordExternalRegion(tasks, serial, busy, wait, wall int64) {
	p.mu.Lock()
	p.stats.Regions++
	p.stats.Tasks += tasks
	p.stats.SerialNanos += serial
	p.stats.BusyNanos += busy
	p.stats.WaitNanos += wait
	p.stats.WallNanos += wall
	p.vclock += wall
	p.mu.Unlock()
}

// runVirtual executes nItems work items serially in order, assigning each
// to the earliest-free virtual worker (dynamic self-scheduling), and
// records the simulated region. body(i, w) runs item i as virtual worker w.
func (p *Pool) runVirtual(nItems int, body func(i, w int)) {
	if nItems == 0 {
		p.record(1, 0, 0, 0, 0)
		return
	}
	nw := p.workers
	if nw > nItems {
		nw = nItems
	}
	clocks := make([]int64, nw)
	dispatch := p.cost.TaskDispatch.Nanoseconds()
	var serial int64
	for i := 0; i < nItems; i++ {
		if p.fail.stopped.Load() {
			break
		}
		w := 0
		for j := 1; j < nw; j++ {
			if clocks[j] < clocks[w] {
				w = j
			}
		}
		start := time.Now()
		body(i, w)
		d := time.Since(start).Nanoseconds()
		serial += d
		clocks[w] += d + dispatch
	}
	var wallWork int64
	for _, c := range clocks {
		if c > wallWork {
			wallWork = c
		}
	}
	wall := wallWork + p.cost.RegionForkJoin.Nanoseconds()
	var busy, wait int64
	for _, c := range clocks {
		busy += c
		wait += wall - c
	}
	// Per-worker accounting mirrors the aggregate stats: simulated work
	// time for participants, barrier wait up to the simulated region
	// wall, idle for workers the region never enlisted.
	if a := p.acc; a != nil {
		for w, c := range clocks {
			a.Add(w, perf.Work, c)
			a.Add(w, perf.BarrierWait, wall-c)
		}
		for w := nw; w < p.workers; w++ {
			a.Add(w, perf.Idle, wall)
		}
	}
	p.mu.Lock()
	p.stats.Regions++
	p.stats.Tasks += int64(nItems)
	p.stats.SerialNanos += serial
	p.stats.BusyNanos += busy
	p.stats.WaitNanos += wait
	p.stats.WallNanos += wall
	p.vclock += wall
	p.mu.Unlock()
}
