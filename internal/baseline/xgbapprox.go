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
	"harpgbdt/internal/tree"
)

// XGBApprox reproduces XGBoost's original approximate engine (the paper's
// XGB-Approx): feature-wise parallelism where each task scans one whole
// column of the input sequentially and scatters into the GHSum plane of ALL
// active nodes (node_blk_size = "all" in block terms), driven by a row→node
// map instead of per-node row lists, growing the tree level by level
// (depthwise only).
type XGBApprox struct {
	*base
	cols *dataset.ColumnBlocks
}

// NewXGBApprox constructs the engine. The growth method is forced to
// depthwise.
func NewXGBApprox(cfg Config, ds *dataset.Dataset) (*XGBApprox, error) {
	if cfg.Growth == grow.Leafwise {
		return nil, fmt.Errorf("baseline: xgb-approx engine is depthwise only")
	}
	cfg.Growth = grow.Depthwise
	b, err := newBase(cfg, ds)
	if err != nil {
		return nil, err
	}
	return &XGBApprox{base: b, cols: dataset.NewColumnBlocks(ds.Binned, 1)}, nil
}

// Name implements engine.Builder.
func (e *XGBApprox) Name() string { return "xgb-approx" }

// approxNode is the per-node state of the level-wise engine (no row lists).
type approxNode struct {
	sum   gh.Pair
	count int32
	hist  *histogram.Hist
	split tree.SplitInfo
}

// BuildTree implements engine.Builder.
func (e *XGBApprox) BuildTree(grad gh.Buffer) (*engine.BuiltTree, error) {
	n := e.ds.NumRows()
	if len(grad) != n {
		return nil, fmt.Errorf("baseline: %d gradients for %d rows", len(grad), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty dataset")
	}
	var rootSum gh.Pair
	for _, p := range grad {
		rootSum.Add(p)
	}
	t := tree.New(rootSum.G, rootSum.H, int32(n))
	t.Nodes[0].Weight = e.cfg.Params.CalcWeight(rootSum.G, rootSum.H)
	nodes := []*approxNode{{sum: rootSum, count: int32(n), split: tree.InvalidSplit()}}
	nodeOf := make([]int32, n) // the NodeMap: all rows start at the root

	leaves := 1
	maxLeaves := e.cfg.MaxLeaves()
	depthCap := e.cfg.DepthLimit()
	active := []int32{0}
	for depth := 0; len(active) > 0 && leaves < maxLeaves; depth++ {
		if depthCap > 0 && depth >= depthCap {
			break
		}
		e.buildHistLevel(grad, nodeOf, nodes, active, int32(len(t.Nodes)))
		e.findSplitLevel(nodes, active)
		var splitters []int32
		for _, id := range active {
			an := nodes[id]
			if an.split.Valid() && an.count >= 2 && an.sum.H >= 2*e.cfg.Params.MinChildWeight &&
				leaves < maxLeaves {
				splitters = append(splitters, id)
				leaves++
			}
		}
		// Release the level's histograms (no subtraction across levels in
		// the plane layout).
		for _, id := range active {
			an := nodes[id]
			if an.hist != nil {
				e.hpool.Put(an.hist)
				an.hist = nil
			}
		}
		if len(splitters) == 0 {
			break
		}
		active = e.applySplitLevel(t, &nodes, nodeOf, splitters)
	}
	return &engine.BuiltTree{Tree: t, LeafOf: nodeOf}, nil
}

// buildHistLevel runs the feature-wise column scans: one task per feature,
// each scanning all N rows and scattering into the GHSum plane of every
// active node.
func (e *XGBApprox) buildHistLevel(grad gh.Buffer, nodeOf []int32, nodes []*approxNode, active []int32, numNodes int32) {
	start := time.Now()
	histIdx := make([]int32, numNodes)
	for i := range histIdx {
		histIdx[i] = -1
	}
	hists := make([]*histogram.Hist, len(active))
	for i, id := range active {
		h := e.hpool.Get()
		h.Reset()
		nodes[id].hist = h
		hists[i] = h
		histIdx[id] = int32(i)
	}
	n := len(nodeOf)
	m := e.ds.NumFeatures()
	e.pool.ParallelFor(m, 1, func(lo, hi, _ int) {
		for f := lo; f < hi; f++ {
			_, _, panel := e.cols.Block(f)
			base := e.layout.Index(f, 0)
			for i := 0; i < n; i++ {
				idx := histIdx[nodeOf[i]]
				if idx < 0 {
					continue
				}
				// A missing value is bin id MissingBin: its own cell.
				p := grad[i]
				c := &hists[idx].Data[base+int(panel[i])]
				c.G += p.G
				c.H += p.H
			}
		}
	})
	e.prof.Add(profile.BuildHist, time.Since(start))
}

// findSplitLevel evaluates all active nodes' splits in one parallel region
// of (node, feature) tasks.
func (e *XGBApprox) findSplitLevel(nodes []*approxNode, active []int32) {
	start := time.Now()
	m := e.ds.NumFeatures()
	results := make([]tree.SplitInfo, len(active)*m)
	total := len(active) * m
	e.pool.ParallelFor(total, 1, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			an := nodes[active[k/m]]
			f := k % m
			results[k] = an.hist.FindBestSplit(e.cfg.Params, an.sum, f, f+1)
		}
	})
	for i, id := range active {
		best := tree.InvalidSplit()
		for f := 0; f < m; f++ {
			if r := results[i*m+f]; r.Better(best) {
				best = r
			}
		}
		nodes[id].split = best
	}
	e.prof.Add(profile.FindSplit, time.Since(start))
}

// applySplitLevel expands the tree for every splitter and updates the
// row→node map in one parallel pass over all rows, counting child sizes per
// chunk.
func (e *XGBApprox) applySplitLevel(t *tree.Tree, nodesp *[]*approxNode, nodeOf []int32, splitters []int32) (next []int32) {
	start := time.Now()
	nodes := *nodesp
	childOf := make(map[int32][2]int32, len(splitters))
	for _, id := range splitters {
		s := nodes[id].split
		l, r := t.AddChildren(id, s.Feature, s.Bin,
			e.ds.Cuts.UpperBound(int(s.Feature), s.Bin), s.DefaultLeft, s.Gain)
		nodes = append(nodes,
			&approxNode{sum: gh.Pair{G: s.LeftG, H: s.LeftH}, split: tree.InvalidSplit()},
			&approxNode{sum: gh.Pair{G: s.RightG, H: s.RightH}, split: tree.InvalidSplit()})
		childOf[id] = [2]int32{l, r}
		next = append(next, l, r)
	}
	*nodesp = nodes
	n := len(nodeOf)
	workers := e.pool.Workers()
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk
	counts := make([]map[int32]int32, nChunks)
	bm := e.ds.Binned
	m := bm.M
	e.pool.ParallelFor(n, chunk, func(lo, hi, _ int) {
		c := lo / chunk
		local := make(map[int32]int32)
		for i := lo; i < hi; i++ {
			children, ok := childOf[nodeOf[i]]
			if !ok {
				continue
			}
			pn := nodes[nodeOf[i]]
			s := pn.split
			b := bm.Bins[i*m+int(s.Feature)]
			goLeft := b <= s.Bin
			if b == dataset.MissingBin {
				goLeft = s.DefaultLeft
			}
			if goLeft {
				nodeOf[i] = children[0]
			} else {
				nodeOf[i] = children[1]
			}
			local[nodeOf[i]]++
		}
		counts[c] = local
	})
	totals := make(map[int32]int32)
	for _, local := range counts {
		for id, cnt := range local {
			totals[id] += cnt
		}
	}
	for _, id := range next {
		an := nodes[id]
		an.count = totals[id]
		tn := &t.Nodes[id]
		tn.SumG, tn.SumH, tn.Count = an.sum.G, an.sum.H, an.count
		tn.Weight = e.cfg.Params.CalcWeight(an.sum.G, an.sum.H)
	}
	e.prof.Add(profile.ApplySplit, time.Since(start))
	return next
}
