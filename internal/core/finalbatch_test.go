package core

import (
	"sort"
	"testing"

	"harpgbdt/internal/grow"
	"harpgbdt/internal/tree"
)

// planRows replays the histogram plan over t's expansions in the order
// their children were grafted, leaving out the last `skip`, and returns the
// rows it builds histograms from: the root's, then per expansion the
// smaller child's when the bigger one can split (the bigger one is
// subtracted), else those of each child that can split.
func planRows(t *tree.Tree, p tree.SplitParams, skip int) int64 {
	var parents []int32
	for id, n := range t.Nodes {
		if !n.IsLeaf() {
			parents = append(parents, int32(id))
		}
	}
	sort.Slice(parents, func(i, j int) bool { return t.Nodes[parents[i]].Left < t.Nodes[parents[j]].Left })
	canSplit := func(n tree.Node) bool { return n.Count >= 2 && n.SumH >= 2*p.MinChildWeight }
	rows := int64(t.Nodes[0].Count)
	for _, id := range parents[:len(parents)-skip] {
		kids := [2]tree.Node{t.Nodes[t.Nodes[id].Left], t.Nodes[t.Nodes[id].Right]}
		small := 0
		if kids[0].Count > kids[1].Count {
			small = 1
		}
		if canSplit(kids[1-small]) {
			rows += int64(kids[small].Count)
			continue
		}
		for _, k := range kids {
			if canSplit(k) {
				rows += int64(k.Count)
			}
		}
	}
	return rows
}

// TestFinalBatchBuildsNoHistograms: the batch — or the ASYNC claim — that
// spends the leaf budget is the tree's last expansion, and its children
// can never split, so they get no histogram. With K=1 it is the last
// expansion grafted (in ASYNC too: one real worker, or the virtual
// machine, which grafts in the turn that claims), so buildhist_rows_total
// must move by what the plan charges every other expansion, which is less
// than what it charges them all. The trees are those of the K=1 barrier
// build in every deterministic configuration.
func TestFinalBatchBuildsNoHistograms(t *testing.T) {
	ds := testDataset(t, 3000, 12)
	grad := dyadicGradients(ds.NumRows(), 21)
	params := tree.DefaultSplitParams()
	var ref *tree.Tree
	for _, tc := range []struct {
		mode    Mode
		workers int
		virtual bool
	}{
		{DP, 2, false}, {DP, 2, true}, {MP, 2, false}, {MP, 2, true},
		{Sync, 2, false}, {Sync, 2, true}, {Async, 1, false}, {Async, 1, true}, {Async, 2, true},
	} {
		cfg := Config{Mode: tc.mode, K: 1, Growth: grow.Leafwise, TreeSize: 5, FeatureBlockSize: 4,
			UseMemBuf: true, Params: params, Workers: tc.workers, Virtual: tc.virtual}
		before := mBuildHistRows.Value()
		tr := buildWith(t, cfg, ds, grad)
		got := mBuildHistRows.Value() - before
		if tr.NumLeaves() != cfg.MaxLeaves() {
			t.Fatalf("%v workers=%d virtual=%v: %d leaves; the fixture must fill the budget of %d",
				tc.mode, tc.workers, tc.virtual, tr.NumLeaves(), cfg.MaxLeaves())
		}
		want, all := planRows(tr, params, 1), planRows(tr, params, 0)
		if got != want || want >= all {
			t.Errorf("%v workers=%d virtual=%v: buildhist_rows_total moved by %d, want %d (%d with the final expansion's children)",
				tc.mode, tc.workers, tc.virtual, got, want, all)
		}
		if tc.mode == Async && tc.workers > 1 {
			continue // the virtual schedule may grow another leafwise tree
		}
		if ref == nil {
			ref = tr
		} else if !treesEquivalent(ref, tr) {
			t.Errorf("%v workers=%d virtual=%v: a different tree from the K=1 DP build", tc.mode, tc.workers, tc.virtual)
		}
	}
}
