package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

// histogramBound is DESIGN.md's bound on the histograms a builder holds at
// once ("Slab lifetime"), maximized over the tree. While R leaves of the
// budget M remain, at most min(R, M−R) queued candidates still hold one:
// the others rank at or below R. A barrier batch adds its min(K, R) popped
// parents' second histograms, and, on the DP kernel, W−1 replicas of each
// of the up to min(NB, 2·min(K, R)) nodes of a node block (worker 0's is
// the node's own). ASYNC adds two per
// worker in flight, and on real threads the histograms another worker's
// claim has marked but not yet put back: one per leaf of budget the claim
// spent and per child published since the claim before it, 2W+1.
func histogramBound(cfg Config, workers int) int {
	m, k, nb := cfg.MaxLeaves(), cfg.EffectiveK(), cfg.NodeBlockSize
	bound := 0
	for r := 1; r < m; r++ {
		held := min(r, m-r) + min(k, r)
		if cfg.Mode != MP {
			held += (workers - 1) * min(nb, 2*min(k, r))
		}
		bound = max(bound, held)
		if cfg.Mode == Async {
			held = min(r, m-r) + 2*workers
			if !cfg.Virtual {
				held += (workers - 1) * (2*workers + 1)
			}
			bound = max(bound, held)
		}
	}
	return bound
}

// TestHistogramsWithinBound: in every mode, real and virtual, the pool's
// high-water mark stays within the written bound. The queued candidates
// the remaining budget cannot reach hold none, so at K=1 the bound is
// about half the leaf budget, well under what keeping them costs.
func TestHistogramsWithinBound(t *testing.T) {
	ds := testDataset(t, 4000, 12)
	grad := dyadicGradients(ds.NumRows(), 61)
	for _, mode := range []Mode{DP, MP, Sync, Async} {
		for _, virtual := range []bool{false, true} {
			for _, k := range []int{1, 4, 16} {
				cfg := Config{Mode: mode, K: k, Growth: grow.Leafwise, TreeSize: 7, FeatureBlockSize: 4,
					NodeBlockSize: 4, UseMemBuf: true, Params: tree.DefaultSplitParams(), Workers: 2, Virtual: virtual}
				b, err := NewBuilder(cfg, ds)
				if err != nil {
					t.Fatal(err)
				}
				leaves := 0
				for i := 0; i < 3; i++ {
					bt, err := b.BuildTree(grad)
					if err != nil {
						t.Fatal(err)
					}
					leaves = bt.Tree.NumLeaves()
				}
				if leaves != cfg.MaxLeaves() {
					t.Fatalf("%v K=%d virtual=%v: %d leaves; the fixture must fill the budget of %d",
						mode, k, virtual, leaves, cfg.MaxLeaves())
				}
				if got, bound := b.HistogramsAllocated(), histogramBound(b.Config(), 2); got > bound {
					t.Errorf("%v K=%d virtual=%v: %d histograms held at once, bound %d", mode, k, virtual, got, bound)
				}
			}
		}
	}
}

// TestHistogramsAllocatedIsPerTree: each tree hands its slabs back, so the
// high-water mark after N trees is the one-tree value, not a sum. The
// configurations are those whose count does not depend on the schedule:
// DP on one worker (one replica), and MP and SYNC with as many feature
// blocks as workers (MP kernel only, every Get on the orchestrator).
func TestHistogramsAllocatedIsPerTree(t *testing.T) {
	ds := testDataset(t, 3000, 10)
	grad := dyadicGradients(ds.NumRows(), 67)
	for _, tc := range []struct {
		mode    Mode
		workers int
	}{{DP, 1}, {MP, 2}, {Sync, 2}} {
		cfg := Config{Mode: tc.mode, K: 4, Growth: grow.Leafwise, TreeSize: 6, FeatureBlockSize: 5,
			UseMemBuf: true, Params: tree.DefaultSplitParams(), Workers: tc.workers}
		b, err := NewBuilder(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		var one int
		for i := 0; i < 5; i++ {
			if _, err := b.BuildTree(grad); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				one = b.HistogramsAllocated()
			}
		}
		if got := b.HistogramsAllocated(); got != one || one == 0 {
			t.Errorf("%v W=%d: %d histograms after one tree, %d after five", tc.mode, tc.workers, one, got)
		}
	}
}

// TestSlabsRebindAcrossLayouts: builders on two datasets of one width but
// different bin counts share the slab cache, so a tree of A is built in
// slabs B's builder wrote with B's layout, and the other way round. The
// trees must be byte-identical to builds from an empty cache. Under
// harpdebug a slab not rebound to its new owner's layout also fails the
// cell-set invariant.
func TestSlabsRebindAcrossLayouts(t *testing.T) {
	grad := dyadicGradients(2000, 71)
	var dss [2]*dataset.Dataset
	for i, bins := range []int{64, 8} {
		ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 2000, Features: 9, Seed: 5}, bins)
		if err != nil {
			t.Fatal(err)
		}
		dss[i] = ds
	}
	if dss[0].Cuts.NumBins(0) == dss[1].Cuts.NumBins(0) {
		t.Fatal("the fixture's datasets must differ in bin counts")
	}
	cfg := Config{Mode: Sync, K: 4, Growth: grow.Leafwise, TreeSize: 6, FeatureBlockSize: 4,
		UseMemBuf: true, Params: tree.DefaultSplitParams(), Workers: 2}
	encode := func(b *Builder, g gh.Buffer) string {
		t.Helper()
		bt, err := b.BuildTree(g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bt.Tree.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	newBuilder := func(ds *dataset.Dataset) *Builder {
		t.Helper()
		b, err := NewBuilder(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// References from an empty cache: two GC cycles free every idle slab.
	var ref [2]string
	for i, ds := range dss {
		runtime.GC()
		runtime.GC()
		ref[i] = encode(newBuilder(ds), grad)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a, b := newBuilder(dss[0]), newBuilder(dss[1])
	for i, step := range []struct {
		b   *Builder
		ref string
	}{{a, ref[0]}, {b, ref[1]}, {a, ref[0]}, {b, ref[1]}} {
		if got := encode(step.b, grad); got != step.ref {
			t.Errorf("build %d: the tree differs from the empty-cache build of its dataset (%d vs %d bytes)", i, len(got), len(step.ref))
		}
	}
}
