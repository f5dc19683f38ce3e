package core

import (
	"runtime"

	"harpgbdt/internal/grow"
	"harpgbdt/internal/invariant"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/perf"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
)

// asyncYield, when non-nil, is called by every ASYNC worker at the named
// schedule points ("loop", "claimed", "grafted", "publish", "exit"), all
// of them outside the spin-mutex critical sections. It is the seam the
// deterministic schedule checker (schedcheck_test.go) uses to drive the
// worker loop through enumerated interleavings with sched.Choreo; in
// production it is nil and the calls are two-instruction no-ops.
var asyncYield func(worker int, point string)

func yieldAsync(worker int, point string) {
	if asyncYield != nil {
		asyncYield(worker, point)
	}
}

// asyncRun is the loosely-coupled TopK region of one tree (the paper's
// "mix mode (X, node parallelism, X)"): workers repeatedly claim a
// candidate from the shared queue, graft its children, process the whole
// node privately (partition, child histograms, splits) and publish the
// children back. The only barrier is at the end of the tree. The four
// steps below are the whole protocol; worker runs them on real
// goroutines, buildAsyncVirtual on the simulated machine's clock.
//
// mu guards exactly the candidate queue, the tree skeleton (st.t), the
// node table (st.nodes) and the leaves/outstanding counters. Critical
// sections are kept to loads, stores and the guarded-structure calls
// themselves: metric updates, cut lookups, weight math, node-state
// allocation and histogram recycling (which takes the pool's own spin
// lock) all happen outside (harplint's spinscope rule enforces this; the
// remaining in-section calls are annotated individually).
type asyncRun struct {
	b         *Builder
	st        *buildState
	maxLeaves int

	mu sched.SpinMutex
	// outstanding counts claimed nodes not yet published: an empty queue
	// only means the tree is finished once it reaches zero.
	outstanding int
}

// buildAsync grows the tree in ASYNC mode. Node parallelism cannot use the
// cores while the queue is shorter than the worker count, so the beginning
// phase runs barrier-mode batches (buildHistBatch picks DP for small
// batches); the rest of the tree is one asyncRun.
func (b *Builder) buildAsync(st *buildState) {
	workers := b.pool.Workers()
	b.cWarmup.Add(b.runBatches(st, func() bool { return st.queue.Len() < workers }))
	r := &asyncRun{b: b, st: st, maxLeaves: b.cfg.MaxLeaves()}
	switch {
	case st.queue.Len() == 0 || st.leaves >= r.maxLeaves:
	case b.pool.Virtual():
		r.buildAsyncVirtual()
	default:
		b.pool.RunWorkers(func(w int) { r.worker(w) })
	}
}

// worker is the loop of one real ASYNC worker goroutine.
func (r *asyncRun) worker(worker int) {
	// The cursor attributes this worker's whole span by construction: each
	// transition flushes the elapsed interval into the previous state, so
	// the per-worker state sums equal the loop's wall time. Nil (profiling
	// off) makes every call a no-op.
	cur := r.b.acc.Cursor(worker)
	cur.Begin(perf.Work)
	defer cur.End()
	defer yieldAsync(worker, "exit")
	for {
		yieldAsync(worker, "loop")
		x, ok, done := r.claim(cur)
		if done {
			return
		}
		if !ok {
			r.b.cQueueEmpty.Inc()
			cur.To(perf.QueueWait)
			runtime.Gosched()
			continue
		}
		yieldAsync(worker, "claimed")
		r.graft(&x, cur)
		yieldAsync(worker, "grafted")
		r.process(&x, worker, cur)
		yieldAsync(worker, "publish")
		r.publish(&x, cur)
	}
}

// claim is critical section 1: pop the best candidate and reserve its
// leaf. ok means claimed: x comes back expanded, its children allocated
// but not yet in the tree, and final if it took the last leaf. done means the tree is finished: leaf budget
// spent, or nothing queued and nothing in flight. Neither means the queue
// is empty but in-flight nodes may still publish children.
func (r *asyncRun) claim(cur *perf.Cursor) (x expansion, ok, done bool) {
	st := r.st
	var c grow.Candidate
	var parent *nodeState
	var queued int
	var final bool
	cur.To(perf.SpinWait)
	r.mu.Lock()
	if st.leaves >= r.maxLeaves {
		done = true
	} else if c, ok = st.queue.Pop(); ok { //harplint:ignore spinscope -- the queue is the guarded structure
		r.outstanding++
		st.leaves++
		final = st.leaves >= r.maxLeaves
		parent = st.nodes[c.NodeID]
		queued = st.queue.Len() //harplint:ignore spinscope -- the queue is the guarded structure
	} else {
		done = r.outstanding == 0
	}
	r.mu.Unlock()
	cur.To(perf.Work)
	if !ok {
		return x, false, done
	}
	// parent's fields are stable: they were fully written before the
	// candidate was pushed (the queue mutex orders the two).
	r.b.cAsyncNodes.Inc()
	mQueueDepth.Set(float64(queued))
	x = r.b.expand(c, parent)
	x.final = final
	return x, true, false
}

// graft is critical section 2: the children enter the shared tree
// skeleton and node table.
func (r *asyncRun) graft(x *expansion, cur *perf.Cursor) {
	cur.To(perf.SpinWait)
	r.mu.Lock()
	r.st.graft(x) //harplint:ignore spinscope -- the tree skeleton and the node table are the guarded structures; their appends are amortized
	r.mu.Unlock()
	cur.To(perf.Work)
}

// process is the private step between graft and publish: the whole
// per-node pipeline inside one worker. Partition the parent's rows, build
// the child histograms the plan wants from rows, then block by block
// subtract and evaluate the children's splits, and recycle the histograms
// nothing will read again.
// cur tracks the Work-phase transitions alongside the prof.Lap chain.
func (r *asyncRun) process(x *expansion, worker int, cur *perf.Cursor) {
	b, st := r.b, r.st
	nsp := obs.StartSpanTID("node", "ProcessNode", worker+1)
	defer nsp.End()
	cur.SetPhase(profile.ApplySplit)
	defer cur.SetPhase(profile.Other)
	tm := profile.StartTimer()
	b.partition(x, nil)
	tm = b.prof.Lap(profile.ApplySplit, tm)
	cur.SetPhase(profile.BuildHist)

	p := b.planFor(x)
	if !p.subtract {
		b.releaseHist(x.parent)
	}
	if !p.need[0] && !p.need[1] {
		return
	}
	for c, ns := range x.kids {
		if p.build[c] {
			b.buildHistPrivate(st, ns)
		}
	}
	tm = b.prof.Lap(profile.BuildHist, tm)
	cur.SetPhase(profile.FindSplit)
	b.findSplits(x)
	for c, ns := range x.kids {
		if p.need[c] && !ns.split.Valid() {
			b.releaseHist(ns) // a leaf: nothing reads its histogram again
		}
	}
	b.prof.Stop(profile.FindSplit, tm)
}

// buildHistPrivate accumulates one node's histogram serially on the
// calling worker.
func (b *Builder) buildHistPrivate(st *buildState, ns *nodeState) {
	ns.hist = b.hpool.Get()
	mBuildHistRows.Add(int64(ns.rows.Len()))
	for fb := 0; fb < b.blocks.NumBlocks(); fb++ {
		b.fill(st, ns, fb, fullBinRange)
	}
	if invariant.Enabled {
		invariant.HistFeatureTotals(ns.hist, ns.sum, "core.buildHistPrivate")
	}
}

// publish is critical section 3: the finished children's totals enter the
// tree and the splittable ones join the queue.
func (r *asyncRun) publish(x *expansion, cur *perf.Cursor) {
	st := r.st
	// Arrays, not slices: no allocation. Filled before taking the lock.
	var push [2]bool
	var cands [2]grow.Candidate
	for c, ns := range x.kids {
		push[c], cands[c] = ns.split.Valid(), candidate(x.ids[c], ns, x.depth)
	}
	cur.To(perf.SpinWait)
	r.mu.Lock()
	for c, ns := range x.kids {
		st.writeStats(x.ids[c], ns) //harplint:ignore spinscope -- the tree skeleton is the guarded structure
		if push[c] {
			st.queue.Push(cands[c]) //harplint:ignore spinscope -- the queue is the guarded structure
		}
	}
	r.outstanding--
	r.mu.Unlock()
	cur.To(perf.Work)
}
