package baseline

import (
	"time"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/histogram"
	"harpgbdt/internal/profile"
)

// XGBHist reproduces XGBoost's tree_method=hist engine: data parallelism
// with one histogram replica per worker, reduced after each node's
// accumulation, processed strictly leaf by leaf to bound the replica
// footprint. Every node therefore costs a fixed number of parallel regions
// (accumulate, reduce, find-split, partition), so the synchronization count
// grows with the node count O(2^D) — the overhead the paper measures in
// Fig. 4 and Table I.
type XGBHist struct {
	*base
	replicas []*histogram.Hist
}

// NewXGBHist constructs the engine. cfg.Growth selects XGB-Depth
// (grow.Depthwise) or XGB-Leaf (grow.Leafwise).
func NewXGBHist(cfg Config, ds *dataset.Dataset) (*XGBHist, error) {
	b, err := newBase(cfg, ds)
	if err != nil {
		return nil, err
	}
	e := &XGBHist{base: b}
	e.replicas = make([]*histogram.Hist, b.pool.Workers())
	for w := range e.replicas {
		e.replicas[w] = histogram.NewHist(b.layout)
	}
	return e, nil
}

// Name implements engine.Builder.
func (e *XGBHist) Name() string {
	if e.cfg.Growth == grow.Depthwise {
		return "xgb-depth"
	}
	return "xgb-leaf"
}

// BuildTree implements engine.Builder.
func (e *XGBHist) BuildTree(grad gh.Buffer) (*engine.BuiltTree, error) {
	st, err := e.newBuildState(grad)
	if err != nil {
		return nil, err
	}
	e.buildHist(st, 0)
	e.findSplit(st, 0)
	e.pushOrFinalize(st, 0)
	maxLeaves := e.cfg.MaxLeaves()
	for st.leaves < maxLeaves {
		c, ok := st.queue.Pop()
		if !ok {
			break
		}
		l, r := e.applySplit(st, c.NodeID)
		e.buildChildren(st, c.NodeID, l, r)
	}
	return e.finish(st), nil
}

// buildChildren builds the needed child histograms (smaller child scanned,
// sibling derived by subtraction, as XGBoost does) and evaluates their
// splits, leaf by leaf.
func (e *XGBHist) buildChildren(st *buildState, parent, l, r int32) {
	lNeed := e.canSplit(st, l)
	rNeed := e.canSplit(st, r)
	pn := st.nodes[parent]
	if !lNeed && !rNeed {
		e.releaseHist(pn)
		return
	}
	ln, rn := st.nodes[l], st.nodes[r]
	small, big := l, r
	if ln.count > rn.count {
		small, big = r, l
	}
	e.buildHist(st, small)
	// Subtraction: sibling = parent - small, in place in the parent's
	// histogram (ownership transfer).
	start := time.Now()
	pn.hist.SubHist(st.nodes[small].hist)
	st.nodes[big].hist = pn.hist
	pn.hist = nil
	e.prof.Add(profile.BuildHist, time.Since(start))
	for _, id := range []int32{l, r} {
		need := lNeed
		if id == r {
			need = rNeed
		}
		if need {
			e.findSplit(st, id)
			e.pushOrFinalize(st, id)
		} else {
			e.releaseHist(st.nodes[id])
		}
	}
}

// buildHist accumulates node id's histogram: one parallel region over row
// chunks into per-worker replicas, then one reduce region.
func (e *XGBHist) buildHist(st *buildState, id int32) {
	start := time.Now()
	ns := st.nodes[id]
	ns.hist = e.hpool.Get()
	ns.hist.Reset()
	rows := ns.rows.Rows
	n := len(rows)
	workers := e.pool.Workers()
	chunk := (n + workers - 1) / workers
	used := make([]bool, workers)
	bm := e.ds.Binned
	e.pool.ParallelFor(n, chunk, func(lo, hi, w int) {
		rep := e.replicas[w]
		if !used[w] {
			rep.Reset()
			used[w] = true
		}
		rep.AccumulateRows(bm, st.grad, rows[lo:hi], 0, bm.M)
	})
	const reduceChunk = 16384
	e.pool.ParallelFor(e.layout.Cells(), reduceChunk, func(lo, hi, _ int) {
		for w := 0; w < workers; w++ {
			if used[w] {
				ns.hist.AddRange(e.replicas[w], lo, hi)
			}
		}
	})
	e.prof.Add(profile.BuildHist, time.Since(start))
}
