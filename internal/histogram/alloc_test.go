package histogram

import (
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/tree"
)

// These tests are the dynamic half of harplint's hotalloc rule: the static
// pass proves the kernels contain no allocating constructs, and these pin
// the observed allocation count at zero so anything the syntactic analysis
// cannot see (escape-analysis regressions, implicit boxing in a future
// edit) still fails the build.

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	if debugTagEnabled {
		t.Skip("the harpdebug invariant layer is allowed to allocate")
	}
}

func TestKernelAllocsPinnedAtZero(t *testing.T) {
	skipIfInstrumented(t)
	bm, layout, grad := makeFixture(256, 6, 16, 7)
	rows := allRows(256)
	mb := gh.BuildMemBuf(rows, grad)
	blocks := dataset.NewColumnBlocks(bm, 3)
	h := NewHist(layout)
	o := NewHist(layout)
	o.AccumulateRows(bm, grad, rows, 0, 6)
	var total gh.Pair
	for _, r := range rows {
		total.Add(grad[r])
	}
	params := tree.SplitParams{Lambda: 1, Gamma: 0.1, MinChildWeight: 0.1}
	allowed := make([]bool, 6)
	for i := range allowed {
		allowed[i] = true
	}

	kernels := []struct {
		name string
		run  func()
	}{
		{"AccumulateRows", func() { h.AccumulateRows(bm, grad, rows, 0, 6) }},
		{"AccumulateMemBuf", func() { h.AccumulateMemBuf(bm, mb, 0, 6) }},
		{"AccumulatePanelRows", func() {
			for b := 0; b < blocks.NumBlocks(); b++ {
				lo, hi, panel := blocks.Block(b)
				h.AccumulatePanelRows(panel, hi-lo, mb, lo, hi)
			}
		}},
		{"AccumulatePanelRowsGrad", func() {
			for b := 0; b < blocks.NumBlocks(); b++ {
				lo, hi, panel := blocks.Block(b)
				h.AccumulatePanelRowsGrad(panel, hi-lo, rows, grad, lo, hi)
			}
		}},
		{"AddHist", func() { h.AddHist(o) }},
		{"AddRange", func() { h.AddRange(o, 0, layout.Cells()) }},
		{"SubHist", func() { h.SubHist(o) }},
		{"SubListed", func() { h.SubListed(o, 1, 3) }},
		{"Trim", func() { h.Trim(0, 6) }},
		{"CoverMemBuf", func() { h.CoverMemBuf(bm.Bins, bm.M, mb[:10], 0, 6) }},
		{"CoverRows", func() { h.CoverRows(bm.Bins, bm.M, rows[:10], 0, 6) }},
		{"FindBestSplit", func() { _ = h.FindBestSplit(params, total, 0, 6) }},
		{"FindBestSplitMasked", func() { _ = h.FindBestSplitMasked(params, total, 0, 6, allowed) }},
		{"Reset", func() { h.Reset() }},
		{"ResetBins", func() { h.ResetBins(0, 6, 4, dataset.MissingBin) }},
	}
	for _, k := range kernels {
		k.run() // warm up any lazy state before counting
		if allocs := testing.AllocsPerRun(100, k.run); allocs != 0 {
			t.Errorf("%s allocates %.1f times per run; kernels must be allocation-free", k.name, allocs)
		}
	}
}

// TestPoolSteadyStateAllocFree: after warm-up, the Get/Put cycle recycles
// without touching the heap (the free-list append reuses its backing
// array).
func TestPoolSteadyStateAllocFree(t *testing.T) {
	skipIfInstrumented(t)
	_, layout, _ := makeFixture(64, 4, 8, 3)
	p := NewPool(layout)
	warm := p.Get()
	p.Put(warm)
	if allocs := testing.AllocsPerRun(100, func() {
		h := p.Get()
		p.Put(h)
	}); allocs != 0 {
		t.Errorf("steady-state Get/Put allocates %.1f times per run", allocs)
	}
	if p.Allocated() != 1 {
		t.Errorf("pool allocated %d histograms, want 1", p.Allocated())
	}
}
