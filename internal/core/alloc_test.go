package core

import (
	"runtime"
	"testing"

	"harpgbdt/internal/grow"
	"harpgbdt/internal/invariant"
	"harpgbdt/internal/tree"
)

// TestAccumulateAllocsPinnedAtZero is the core-side companion of the
// histogram kernel alloc tests: Builder.accumulate is a hotalloc root (the
// BuildHist driver every mode funnels through), so its full block sweep
// must not touch the heap.
func TestAccumulateAllocsPinnedAtZero(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	if invariant.Enabled {
		t.Skip("the harpdebug invariant layer is allowed to allocate")
	}
	for _, memBuf := range []bool{true, false} {
		ds := testDataset(t, 512, 6)
		grad := dyadicGradients(512, 11)
		cfg := Config{
			Mode: Sync, K: 4, Growth: grow.Leafwise, TreeSize: 6,
			FeatureBlockSize: 2, Params: tree.DefaultSplitParams(),
			Workers: 1, UseMemBuf: memBuf,
		}
		b, err := NewBuilder(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		st := b.newBuildState(grad)
		ns := st.nodes[0]
		if ns.rows.Len() == 0 {
			t.Fatal("root row set is empty")
		}
		h := b.hpool.Get()
		sweep := func() {
			for fb := 0; fb < b.blocks.NumBlocks(); fb++ {
				b.accumulate(h, st, ns, 0, ns.rows.Len(), fb, fullBinRange)
			}
		}
		sweep() // warm up
		if allocs := testing.AllocsPerRun(50, sweep); allocs != 0 {
			t.Errorf("memBuf=%v: accumulate sweep allocates %.1f times per run", memBuf, allocs)
		}
		b.hpool.Put(h)
	}
}

// TestBuildTreeAllocBudget pins what a tree costs the heap once the
// builder is warm: the row arena and the histogram pool are reused, so a
// warm BuildTree allocates the result (LeafOf, 4 bytes per row, and the
// tree) plus per-node bookkeeping — not row lists. Before the arena the
// same call allocated about 270 bytes per row. The pool's high-water mark
// follows each tree's ASYNC schedule, so one warm-up tree can leave it
// short of what the measured tree needs; several warm-up trees do not.
func TestBuildTreeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	if invariant.Enabled {
		t.Skip("the harpdebug invariant layer is allowed to allocate")
	}
	const rows, budget, warmup = 50000, 32, 4 // budget in bytes per training row
	ds := testDataset(t, rows, 8)
	grad := dyadicGradients(rows, 3)
	for _, memBuf := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Workers, cfg.UseMemBuf = 2, memBuf
		b, err := NewBuilder(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warmup; i++ {
			if _, err := b.BuildTree(grad); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bt, err := b.BuildTree(grad)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if bt.Tree.NumLeaves() < 16 {
			t.Fatalf("memBuf=%v: only %d leaves, the budget would be met by not growing", memBuf, bt.Tree.NumLeaves())
		}
		if perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows; perRow > budget {
			t.Errorf("memBuf=%v: warm BuildTree allocated %.1f bytes per row, budget %d", memBuf, perRow, budget)
		}
	}
}
