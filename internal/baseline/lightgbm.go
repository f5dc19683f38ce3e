package baseline

import (
	"time"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/profile"
)

// LightGBM reproduces LightGBM's parallel design: feature-wise model
// parallelism with strictly leafwise, leaf-by-leaf growth. BuildHist runs
// one task per feature, each scanning ALL of the node's rows and writing
// only its own feature's bins into the shared histogram (conflict-free but
// with redundant gradient reads — the inefficiency the paper's MemBuf
// addresses). Bins are read from per-feature column panels, matching
// LightGBM's column-major feature storage.
type LightGBM struct {
	*base
	cols *dataset.ColumnBlocks // width-1 panels (column-major storage)
}

// NewLightGBM constructs the engine. The growth method is always leafwise
// (the only mode LightGBM supports, as the paper notes); any configured
// Growth value is overridden.
func NewLightGBM(cfg Config, ds *dataset.Dataset) (*LightGBM, error) {
	cfg.Growth = grow.Leafwise
	b, err := newBase(cfg, ds)
	if err != nil {
		return nil, err
	}
	return &LightGBM{base: b, cols: dataset.NewColumnBlocks(ds.Binned, 1)}, nil
}

// Name implements engine.Builder.
func (e *LightGBM) Name() string { return "lightgbm" }

// BuildTree implements engine.Builder.
func (e *LightGBM) BuildTree(grad gh.Buffer) (*engine.BuiltTree, error) {
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

// buildChildren builds the needed child histograms with the subtraction
// trick (LightGBM implements it too) and evaluates their splits.
func (e *LightGBM) buildChildren(st *buildState, parent, l, r int32) {
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

// buildHist accumulates node id's histogram with one parallel region of
// per-feature tasks. Parallelism is capped at M features; every task
// re-reads the node's gradient stream (the redundant-read cost of feature
// parallelism).
func (e *LightGBM) buildHist(st *buildState, id int32) {
	start := time.Now()
	ns := st.nodes[id]
	ns.hist = e.hpool.Get()
	ns.hist.Reset()
	rows := ns.rows.Rows
	m := e.ds.NumFeatures()
	e.pool.ParallelFor(m, 1, func(lo, hi, _ int) {
		for f := lo; f < hi; f++ {
			_, _, panel := e.cols.Block(f)
			ns.hist.AccumulatePanelRowsGrad(panel, 1, rows, st.grad, f, f+1)
		}
	})
	e.prof.Add(profile.BuildHist, time.Since(start))
}
