// Package baseline implements the comparison systems of the paper's
// evaluation as independent engines:
//
//   - XGBHist — XGBoost's tree_method=hist: data parallelism with
//     per-worker histogram replicas and reduction, parallelized strictly
//     leaf by leaf (the O(2^D) synchronization pattern of Sec. III), in
//     depthwise (XGB-Depth) or leafwise (XGB-Leaf) growth.
//   - LightGBM — feature-wise model parallelism, strictly leafwise and
//     leaf by leaf, conflict-free writes into one shared histogram,
//     redundant gradient reads across feature tasks.
//   - XGBApprox — XGBoost's original approximate engine: feature-wise
//     column scans that write across the GHSum plane of all active nodes
//     (node_blk_size = "all"), level by level, driven by a row→node map.
//
// They share the growth queue, split math, partitioning and booster
// plumbing with HarpGBDT so the comparison isolates the parallel design,
// exactly like the paper's controlled experiments.
package baseline

import (
	"fmt"
	"time"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/histogram"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/tree"
)

// Config configures a baseline engine.
type Config struct {
	// Growth is the tree growth policy (XGBHist supports both; LightGBM is
	// leafwise only; XGBApprox is depthwise only).
	Growth grow.Method
	// TreeSize is the paper's D (leaf budget 2^(D-1); depth cap D-1 under
	// depthwise growth).
	TreeSize int
	// MaxDepth additionally caps depth under leafwise growth (0 = none).
	MaxDepth int
	// Params are the split regularization hyper-parameters.
	Params tree.SplitParams
	// Workers is the parallel width (0 = GOMAXPROCS, or 32 in virtual
	// mode).
	Workers int
	// Virtual runs the engine on the simulated parallel machine (see
	// core.Config.Virtual).
	Virtual bool
	// Cost overrides the virtual machine's cost model (zero = defaults).
	Cost sched.CostModel
}

func (c Config) withDefaults() Config {
	if c.TreeSize == 0 {
		c.TreeSize = 8
	}
	return c
}

// MaxLeaves returns the leaf budget 2^(D-1).
func (c Config) MaxLeaves() int {
	d := c.TreeSize
	if d <= 0 {
		d = 8
	}
	if d > 30 {
		d = 30
	}
	return 1 << (d - 1)
}

// DepthLimit returns the effective depth cap (0 = none).
func (c Config) DepthLimit() int {
	if c.Growth == grow.Depthwise {
		return c.TreeSize - 1
	}
	return c.MaxDepth
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.TreeSize < 0 || c.TreeSize > 30 {
		return fmt.Errorf("baseline: tree size %d out of range", c.TreeSize)
	}
	if c.MaxDepth < 0 {
		return fmt.Errorf("baseline: negative max depth")
	}
	return nil
}

// nodeState mirrors core's per-node training state.
type nodeState struct {
	rows  engine.RowSet
	sum   gh.Pair
	count int32
	hist  *histogram.Hist
	split tree.SplitInfo
}

// base carries the state shared by the baseline engines.
type base struct {
	cfg    Config
	ds     *dataset.Dataset
	pool   *sched.Pool
	layout *histogram.Layout
	hpool  *histogram.Pool
	// arena holds every node's row list for the tree being built (see
	// engine.Arena). It is allocated by the first newBuildState: XGBApprox,
	// which keeps a row→node map instead, never needs one.
	arena *engine.Arena
	prof  *profile.Breakdown
}

func newBase(cfg Config, ds *dataset.Dataset) (*base, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	layout := histogram.NewLayout(ds.Cuts)
	pool := sched.NewPool(cfg.Workers)
	if cfg.Virtual {
		pool = sched.NewVirtualPool(cfg.Workers, cfg.Cost)
	}
	return &base{
		cfg:    cfg,
		ds:     ds,
		pool:   pool,
		layout: layout,
		hpool:  histogram.NewPool(layout),
		prof:   &profile.Breakdown{},
	}, nil
}

// Pool implements engine.Builder.
func (b *base) Pool() *sched.Pool { return b.pool }

// Profile implements engine.Builder.
func (b *base) Profile() *profile.Breakdown { return b.prof }

// buildState is the per-tree state of a baseline engine.
type buildState struct {
	grad   gh.Buffer
	t      *tree.Tree
	nodes  []*nodeState
	queue  *grow.Queue
	leaves int
}

func (b *base) newBuildState(grad gh.Buffer) (*buildState, error) {
	if len(grad) != b.ds.NumRows() {
		return nil, fmt.Errorf("baseline: %d gradients for %d rows", len(grad), b.ds.NumRows())
	}
	if b.ds.NumRows() == 0 {
		return nil, fmt.Errorf("baseline: empty dataset")
	}
	n := b.ds.NumRows()
	if b.arena == nil {
		b.arena = engine.NewArena(n, false)
	}
	rootRows := b.arena.Root(grad)
	rootSum := rootRows.Sum(grad)
	t := tree.New(rootSum.G, rootSum.H, int32(n))
	t.Nodes[0].Weight = b.cfg.Params.CalcWeight(rootSum.G, rootSum.H)
	return &buildState{
		grad:   grad,
		t:      t,
		nodes:  []*nodeState{{rows: rootRows, sum: rootSum, count: int32(n), split: tree.InvalidSplit()}},
		queue:  grow.NewQueue(b.cfg.Growth),
		leaves: 1,
	}, nil
}

// applySplit expands one node and partitions its rows (parallel when the
// node is large).
func (b *base) applySplit(st *buildState, id int32) (left, right int32) {
	start := time.Now()
	ns := st.nodes[id]
	s := ns.split
	l, r := st.t.AddChildren(id, s.Feature, s.Bin,
		b.ds.Cuts.UpperBound(int(s.Feature), s.Bin), s.DefaultLeft, s.Gain)
	ln := &nodeState{sum: gh.Pair{G: s.LeftG, H: s.LeftH}, split: tree.InvalidSplit()}
	rn := &nodeState{sum: gh.Pair{G: s.RightG, H: s.RightH}, split: tree.InvalidSplit()}
	st.nodes = append(st.nodes, ln, rn)
	lrs, rrs := engine.Partition(ns.rows, engine.GoLeftFunc(b.ds.Binned, s), b.pool)
	ln.rows, rn.rows = lrs, rrs
	ln.count, rn.count = int32(lrs.Len()), int32(rrs.Len())
	ns.rows = engine.RowSet{}
	for i, c := range []int32{l, r} {
		cs := st.nodes[c]
		tn := &st.t.Nodes[c]
		tn.SumG, tn.SumH, tn.Count = cs.sum.G, cs.sum.H, cs.count
		tn.Weight = b.cfg.Params.CalcWeight(cs.sum.G, cs.sum.H)
		_ = i
	}
	st.leaves++
	b.prof.Add(profile.ApplySplit, time.Since(start))
	return l, r
}

// canSplit reports whether node id can possibly be split further.
func (b *base) canSplit(st *buildState, id int32) bool {
	ns := st.nodes[id]
	if ns.count < 2 {
		return false
	}
	if ns.sum.H < 2*b.cfg.Params.MinChildWeight {
		return false
	}
	if lim := b.cfg.DepthLimit(); lim > 0 && int(st.t.Nodes[id].Depth) >= lim {
		return false
	}
	return true
}

// pushOrFinalize queues node id or finalizes it as a leaf.
func (b *base) pushOrFinalize(st *buildState, id int32) {
	ns := st.nodes[id]
	if !ns.split.Valid() {
		b.releaseHist(ns)
		return
	}
	st.queue.Push(grow.Candidate{
		NodeID: id, Gain: ns.split.Gain,
		Depth: st.t.Nodes[id].Depth, Count: ns.count,
	})
}

func (b *base) releaseHist(ns *nodeState) {
	if ns.hist != nil {
		b.hpool.Put(ns.hist)
		ns.hist = nil
	}
}

// findSplit evaluates node id's best split with one parallel region of
// per-feature tasks and a deterministic reduction.
func (b *base) findSplit(st *buildState, id int32) {
	start := time.Now()
	ns := st.nodes[id]
	m := b.ds.NumFeatures()
	results := make([]tree.SplitInfo, m)
	b.pool.ParallelFor(m, 1, func(lo, hi, _ int) {
		for f := lo; f < hi; f++ {
			results[f] = ns.hist.FindBestSplit(b.cfg.Params, ns.sum, f, f+1)
		}
	})
	best := tree.InvalidSplit()
	for f := 0; f < m; f++ {
		if results[f].Better(best) {
			best = results[f]
		}
	}
	ns.split = best
	b.prof.Add(profile.FindSplit, time.Since(start))
}

// finish assembles the BuiltTree.
func (b *base) finish(st *buildState) *engine.BuiltTree {
	for {
		c, ok := st.queue.Pop()
		if !ok {
			break
		}
		b.releaseHist(st.nodes[c.NodeID])
	}
	leafRows := make(map[int32]engine.RowSet)
	for id := range st.nodes {
		ns := st.nodes[id]
		b.releaseHist(ns)
		if st.t.Nodes[id].IsLeaf() {
			leafRows[int32(id)] = ns.rows
		}
		ns.rows = engine.RowSet{}
	}
	leafOf := engine.ScatterLeaves(b.ds.NumRows(), leafRows)
	return &engine.BuiltTree{Tree: st.t, LeafOf: leafOf}
}
