package core

import (
	"math"

	"harpgbdt/internal/perf"
)

// buildAsyncVirtual drives the run on the simulated parallel machine: a
// discrete-event loop in which the virtual worker with the earliest clock
// takes the next turn through the same claim, graft, process and publish
// steps a goroutine takes in worker. A node's pipeline really runs
// (serially, here) and its measured duration advances the owning worker's
// clock; its publish is held back until simulated time reaches the moment
// it finished, so a worker claims from exactly the queue it would have
// seen then. The result is the tree the real loop grows under that
// schedule, plus deterministic busy/wait/wall statistics.
func (r *asyncRun) buildAsyncVirtual() {
	b := r.b
	workers := b.pool.Workers()
	// The ledger doubles as the stopwatch (core reads no clock itself): a
	// node lasts what its worker's cursor booked, so the clocks and the
	// ledger agree to the nanosecond. A private one serves when profiling
	// is off.
	acc := b.acc
	if acc == nil {
		acc = perf.NewAccounting(workers)
	}
	// claim, graft and publish take the mutex once each.
	locks := 3 * b.pool.Cost().SpinLock.Nanoseconds()
	clocks := make([]int64, workers)
	// held[w] is the node worker w has processed but, at clocks[w], not
	// yet published.
	held := make([]*expansion, workers)
	var serial, tasks int64
	for {
		w := 0
		for j := 1; j < workers; j++ {
			if clocks[j] < clocks[w] {
				w = j
			}
		}
		now := clocks[w]
		next := int64(math.MaxInt64) // when the next held node publishes
		for j, x := range held {
			switch {
			case x == nil:
			case clocks[j] <= now:
				r.publish(x, nil)
				held[j] = nil
			case clocks[j] < next:
				next = clocks[j]
			}
		}
		x, ok, done := r.claim(nil)
		if done {
			break
		}
		if !ok {
			// Idle until the next publish: simulated queue wait.
			b.cQueueEmpty.Inc()
			acc.Add(w, perf.QueueWait, next-now)
			clocks[w] = next
			continue
		}
		cur, before := acc.Cursor(w), acc.WorkerNanos(w)
		cur.Begin(perf.Work)
		r.graft(&x, nil)
		r.process(&x, w, cur)
		cur.End()
		d := acc.WorkerNanos(w) - before
		acc.Add(w, perf.SpinWait, locks)
		held[w] = &x
		clocks[w] += d + locks
		serial += d
		tasks++
	}
	var wall int64
	for w, x := range held {
		if x != nil {
			r.publish(x, nil)
		}
		wall = max(wall, clocks[w])
	}
	// The gap between a worker's clock and the region wall is the
	// end-of-tree barrier, which completes every worker's ledger to wall.
	for w := range clocks {
		acc.Add(w, perf.BarrierWait, wall-clocks[w])
	}
	busy := serial + tasks*locks
	b.pool.RecordExternalRegion(tasks, serial, busy, int64(workers)*wall-busy, wall)
}
