package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/tree"
)

// makeFixture builds a small binned dataset plus dyadic gradients (exact
// under any summation order) for kernel tests.
func makeFixture(n, m, bins int, seed uint64) (*dataset.BinnedMatrix, *Layout, gh.Buffer) {
	d := dataset.NewDense(n, m)
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	for i := 0; i < n; i++ {
		for f := 0; f < m; f++ {
			if next()%10 == 0 {
				d.SetMissing(i, f)
			} else {
				d.Set(i, f, float32(next()%uint64(bins)))
			}
		}
	}
	cuts := dataset.BuildCuts(d, bins)
	bm := dataset.BinDense(d, cuts)
	layout := NewLayout(cuts)
	grad := gh.NewBuffer(n)
	for i := range grad {
		grad[i] = gh.Pair{
			G: float64(int64(next()%4097)-2048) / 1024,
			H: float64(next()%1024+1) / 1024,
		}
	}
	return bm, layout, grad
}

func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// layoutOf builds a layout with the given real bin counts per feature.
func layoutOf(nbins ...int32) *Layout {
	l := &Layout{M: len(nbins), nbins: nbins}
	for _, nb := range nbins {
		l.total += int(nb)
	}
	return l
}

func TestLayout(t *testing.T) {
	d := dataset.NewDense(10, 3)
	for i := 0; i < 10; i++ {
		d.Set(i, 0, float32(i))   // 10 bins
		d.Set(i, 1, float32(i%2)) // 2 bins
		d.Set(i, 2, 1)            // 1 bin
	}
	cuts := dataset.BuildCuts(d, 255)
	l := NewLayout(cuts)
	if l.TotalBins() != 13 {
		t.Fatalf("total bins %d, want 13", l.TotalBins())
	}
	if l.NBins(0) != 10 || l.NBins(1) != 2 || l.NBins(2) != 1 {
		t.Fatalf("per-feature bins %d/%d/%d", l.NBins(0), l.NBins(1), l.NBins(2))
	}
	// Storage is fixed-stride: one cell per uint8 bin id, whatever the
	// feature's cardinality, the last one for missing values.
	if Stride != 256 || l.Cells() != 3*Stride {
		t.Fatalf("stride %d, cells %d", Stride, l.Cells())
	}
	if l.Index(1, 1) != Stride+1 {
		t.Fatalf("index(1,1) = %d", l.Index(1, 1))
	}
	if l.Index(2, dataset.MissingBin) != l.Cells()-1 {
		t.Fatalf("missing cell of the last feature at %d", l.Index(2, dataset.MissingBin))
	}
	h := NewHist(l)
	if len(h.Data) != l.Cells() {
		t.Fatalf("histogram holds %d cells, layout says %d", len(h.Data), l.Cells())
	}
	if len(h.Feature(0)) != 10 || len(h.Feature(1)) != 2 || len(h.Feature(2)) != 1 {
		t.Fatal("Feature must return the real bins only")
	}
	h.Data[l.Index(1, 1)] = gh.Pair{G: 1, H: 2}
	h.Data[l.Index(1, dataset.MissingBin)] = gh.Pair{G: 3, H: 4}
	if h.At(1, 1) != (gh.Pair{G: 1, H: 2}) || h.Feature(1)[1] != h.At(1, 1) {
		t.Fatal("At / Feature do not alias Data")
	}
	if h.Missing(1) != (gh.Pair{G: 3, H: 4}) || h.FeatureSum(1) != (gh.Pair{G: 1, H: 2}) {
		t.Fatalf("missing cell %+v, feature sum %+v", h.Missing(1), h.FeatureSum(1))
	}
}

func TestAccumulateRowsTotalInvariant(t *testing.T) {
	bm, layout, grad := makeFixture(500, 4, 16, 1)
	h := NewHist(layout)
	h.AccumulateRows(bm, grad, allRows(500), 0, 4)
	// For every feature, the histogram total must equal the sum of
	// gradients of rows with a present value for that feature.
	for f := 0; f < 4; f++ {
		var want gh.Pair
		for i := 0; i < 500; i++ {
			if bm.At(i, f) != dataset.MissingBin {
				want.Add(grad[i])
			}
		}
		got := h.FeatureSum(f)
		if got.G != want.G || got.H != want.H {
			t.Fatalf("feature %d: got %+v want %+v", f, got, want)
		}
	}
}

func TestAccumulateVariantsAgree(t *testing.T) {
	bm, layout, grad := makeFixture(300, 6, 12, 2)
	rows := allRows(300)
	mb := gh.BuildMemBuf(rows, grad)

	// The reference is written against the definition, not a kernel: row
	// order per cell, missing values into the missing cell.
	ref := NewHist(layout)
	missing := 0
	for _, r := range rows {
		for f := 0; f < 6; f++ {
			b := bm.At(int(r), f)
			if b == dataset.MissingBin {
				missing++
			}
			ref.Data[layout.Index(f, b)].Add(grad[r])
		}
	}
	if missing == 0 {
		t.Fatal("fixture has no missing values")
	}

	hists := map[string]*Hist{}
	for _, name := range []string{"rows", "membuf", "panel-membuf", "panel-grad", "panel-binrange", "panel-grad-binrange"} {
		hists[name] = NewHist(layout)
	}
	hists["rows"].AccumulateRows(bm, grad, rows, 0, 6)
	hists["membuf"].AccumulateMemBuf(bm, mb, 0, 6)
	// Block widths 3 and 4: the second leaves a narrower last block.
	for _, width := range []int{3, 4} {
		blocks := dataset.NewColumnBlocks(bm, width)
		for _, name := range []string{"panel-membuf", "panel-grad", "panel-binrange", "panel-grad-binrange"} {
			hists[name].Reset()
		}
		for b := 0; b < blocks.NumBlocks(); b++ {
			lo, hi, panel := blocks.Block(b)
			w := hi - lo
			hists["panel-membuf"].AccumulatePanelRows(panel, w, mb, lo, hi)
			hists["panel-grad"].AccumulatePanelRowsGrad(panel, w, rows, grad, lo, hi)
			// Bin-split kernels: ranges tiling [0, MissingBin) must together
			// equal the full pass, missing cell included (it belongs to the
			// range that ends at MissingBin).
			for _, r := range [][2]uint8{{0, 6}, {6, 9}, {9, dataset.MissingBin}} {
				hists["panel-binrange"].AccumulatePanelRowsBinRange(panel, w, mb, lo, hi, r[0], r[1])
				hists["panel-grad-binrange"].AccumulatePanelRowsGradBinRange(panel, w, rows, grad, lo, hi, r[0], r[1])
			}
		}
		for name, h := range hists {
			for i := range ref.Data {
				if ref.Data[i] != h.Data[i] {
					t.Fatalf("width %d: %s kernel differs at cell %d: %+v vs %+v", width, name, i, h.Data[i], ref.Data[i])
				}
			}
		}
	}
}

// TestMissingCellConservation: for every feature, the real bins plus the
// missing cell hold every row of the node exactly once, so they sum to the
// node total — the conservation law the branch-free layout adds (the old
// layout dropped missing rows, so only "feature sum <= node sum" held).
func TestMissingCellConservation(t *testing.T) {
	bm, layout, grad := makeFixture(400, 5, 9, 8)
	rows := allRows(400)[37:311]
	h := NewHist(layout)
	h.AccumulateRows(bm, grad, rows, 0, 5)
	total := grad.SumRows(rows)
	for f := 0; f < 5; f++ {
		var wantMissing gh.Pair
		for _, r := range rows {
			if bm.At(int(r), f) == dataset.MissingBin {
				wantMissing.Add(grad[r])
			}
		}
		if wantMissing.IsZero() {
			t.Fatalf("feature %d: fixture has no missing rows", f)
		}
		if h.Missing(f) != wantMissing {
			t.Fatalf("feature %d: missing cell %+v, want %+v", f, h.Missing(f), wantMissing)
		}
		got := h.FeatureSum(f)
		got.Add(h.Missing(f))
		if got != total { // dyadic gradients: exact
			t.Fatalf("feature %d: bins + missing = %+v, node total %+v", f, got, total)
		}
		// The cells between the last real bin and the missing cell stay
		// untouched.
		for b := layout.NBins(f); b < int(dataset.MissingBin); b++ {
			if !h.At(f, uint8(b)).IsZero() {
				t.Fatalf("feature %d: unused cell %d written: %+v", f, b, h.At(f, uint8(b)))
			}
		}
	}
}

func TestSubtractionIdentity(t *testing.T) {
	bm, layout, grad := makeFixture(400, 3, 10, 3)
	rows := allRows(400)
	left := rows[:150]
	right := rows[150:]
	parent := NewHist(layout)
	parent.AccumulateRows(bm, grad, rows, 0, 3)
	lh := NewHist(layout)
	lh.AccumulateRows(bm, grad, left, 0, 3)
	rh := NewHist(layout)
	rh.AccumulateRows(bm, grad, right, 0, 3)
	// parent - left must equal right exactly (dyadic gradients).
	parent.SubHist(lh)
	for i := range parent.Data {
		if parent.Data[i] != rh.Data[i] {
			t.Fatalf("subtraction differs at cell %d: %+v vs %+v", i, parent.Data[i], rh.Data[i])
		}
	}
}

func TestAddHistAndClone(t *testing.T) {
	bm, layout, grad := makeFixture(100, 2, 8, 4)
	h1 := NewHist(layout)
	h1.AccumulateRows(bm, grad, allRows(50), 0, 2)
	h2 := NewHist(layout)
	h2.AccumulateRows(bm, grad, allRows(100)[50:], 0, 2)
	full := NewHist(layout)
	full.AccumulateRows(bm, grad, allRows(100), 0, 2)
	c := h1.Clone()
	c.AddHist(h2)
	for i := range full.Data {
		if c.Data[i] != full.Data[i] {
			t.Fatalf("replica reduce differs at %d", i)
		}
	}
	// Clone must be independent.
	c.Reset()
	if h1.Total(0, 2).IsZero() {
		t.Fatal("clone reset affected original")
	}
}

func TestAddRangeEquivalentToAddHist(t *testing.T) {
	bm, layout, grad := makeFixture(200, 4, 8, 5)
	h1 := NewHist(layout)
	h1.AccumulateRows(bm, grad, allRows(100), 0, 4)
	h2 := NewHist(layout)
	h2.AccumulateRows(bm, grad, allRows(200)[100:], 0, 4)
	a := h1.Clone()
	a.AddHist(h2)
	b := h1.Clone()
	total := layout.Cells()
	if a.Missing(0).IsZero() {
		t.Fatal("fixture has no missing mass to reduce")
	}
	for lo := 0; lo < total; lo += 100 {
		hi := lo + 100
		if hi > total {
			hi = total
		}
		b.AddRange(h2, lo, hi)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("AddRange differs at %d", i)
		}
	}
}

func TestCheckTotal(t *testing.T) {
	bm, layout, grad := makeFixture(50, 2, 4, 6)
	h := NewHist(layout)
	rows := allRows(50)
	h.AccumulateRows(bm, grad, rows, 0, 2)
	var want gh.Pair
	for f := 0; f < 2; f++ {
		for i := 0; i < 50; i++ {
			if bm.At(i, f) != dataset.MissingBin {
				want.Add(grad[i])
			}
		}
	}
	if err := h.CheckTotal(want, 0, 2, 1e-9); err != nil {
		t.Fatal(err)
	}
	want.G += 1
	if err := h.CheckTotal(want, 0, 2, 1e-9); err == nil {
		t.Fatal("corrupted total passed check")
	}
}

// bruteForceBestSplit enumerates splits directly over rows.
func bruteForceBestSplit(bm *dataset.BinnedMatrix, cuts *dataset.Cuts, grad gh.Buffer, rows []int32, p tree.SplitParams) tree.SplitInfo {
	best := tree.InvalidSplit()
	var total gh.Pair
	for _, r := range rows {
		total.Add(grad[r])
	}
	for f := 0; f < bm.M; f++ {
		nb := cuts.NumBins(f)
		for b := 0; b < nb; b++ {
			for _, missLeft := range []bool{false, true} {
				if b == nb-1 && missLeft {
					continue // everything left: not a split
				}
				var gl, hl float64
				for _, r := range rows {
					bin := bm.At(int(r), f)
					goLeft := false
					if bin == dataset.MissingBin {
						goLeft = missLeft
					} else {
						goLeft = int(bin) <= b
					}
					if goLeft {
						gl += grad[r].G
						hl += grad[r].H
					}
				}
				gr := total.G - gl
				hr := total.H - hl
				if !p.Admissible(hl, hr) {
					continue
				}
				g := p.SplitGain(gl, hl, gr, hr)
				if g <= 0 {
					continue
				}
				cand := tree.SplitInfo{Feature: int32(f), Bin: uint8(b), DefaultLeft: missLeft,
					Gain: g, LeftG: gl, LeftH: hl, RightG: gr, RightH: hr}
				if cand.Better(best) {
					best = cand
				}
			}
		}
	}
	return best
}

func TestFindBestSplitMatchesBruteForce(t *testing.T) {
	params := tree.SplitParams{Lambda: 1, Gamma: 0.1, MinChildWeight: 0.1}
	for seed := uint64(10); seed < 18; seed++ {
		bm, layout, grad := makeFixture(120, 3, 6, seed)
		rows := allRows(120)
		h := NewHist(layout)
		h.AccumulateRows(bm, grad, rows, 0, 3)
		var total gh.Pair
		for _, r := range rows {
			total.Add(grad[r])
		}
		got := h.FindBestSplit(params, total, 0, 3)
		cuts := cutsFromLayout(bm, layout)
		want := bruteForceBestSplit(bm, cuts, grad, rows, params)
		if got.Valid() != want.Valid() {
			t.Fatalf("seed %d: validity %v vs %v", seed, got.Valid(), want.Valid())
		}
		if !got.Valid() {
			continue
		}
		if math.Abs(got.Gain-want.Gain) > 1e-9 {
			t.Fatalf("seed %d: gain %v vs %v (feature %d/%d bin %d/%d)",
				seed, got.Gain, want.Gain, got.Feature, want.Feature, got.Bin, want.Bin)
		}
		if got.Feature != want.Feature || got.Bin != want.Bin || got.DefaultLeft != want.DefaultLeft {
			t.Fatalf("seed %d: split (%d,%d,%v) vs (%d,%d,%v)",
				seed, got.Feature, got.Bin, got.DefaultLeft, want.Feature, want.Bin, want.DefaultLeft)
		}
	}
}

// cutsFromLayout rebuilds a Cuts facade for bin-count queries in the brute
// force (values don't matter, only counts).
func cutsFromLayout(bm *dataset.BinnedMatrix, l *Layout) *dataset.Cuts {
	c := &dataset.Cuts{M: l.M, Ptr: make([]int32, l.M+1), MaxBins: 255}
	for f := 0; f < l.M; f++ {
		c.Ptr[f+1] = c.Ptr[f] + int32(l.NBins(f))
	}
	c.Vals = make([]float32, c.Ptr[l.M])
	for f := 0; f < l.M; f++ {
		for k := c.Ptr[f]; k < c.Ptr[f+1]; k++ {
			c.Vals[k] = float32(k - c.Ptr[f])
		}
	}
	return c
}

func TestFindBestSplitRespectsMinChildWeight(t *testing.T) {
	// With a huge min_child_weight nothing is admissible.
	bm, layout, grad := makeFixture(100, 2, 8, 30)
	h := NewHist(layout)
	h.AccumulateRows(bm, grad, allRows(100), 0, 2)
	var total gh.Pair
	for _, p := range grad {
		total.Add(p)
	}
	params := tree.SplitParams{Lambda: 1, Gamma: 0, MinChildWeight: 1e9}
	if s := h.FindBestSplit(params, total, 0, 2); s.Valid() {
		t.Fatalf("inadmissible split returned: %+v", s)
	}
}

func TestFindBestSplitGammaThreshold(t *testing.T) {
	// A split valid at gamma=0 must disappear when gamma exceeds its gain.
	bm, layout, grad := makeFixture(100, 2, 8, 31)
	h := NewHist(layout)
	h.AccumulateRows(bm, grad, allRows(100), 0, 2)
	var total gh.Pair
	for _, p := range grad {
		total.Add(p)
	}
	s0 := h.FindBestSplit(tree.SplitParams{Lambda: 1, MinChildWeight: 0.01}, total, 0, 2)
	if !s0.Valid() {
		t.Skip("no split at gamma 0 on this fixture")
	}
	big := tree.SplitParams{Lambda: 1, Gamma: s0.Gain + 1, MinChildWeight: 0.01}
	if s := h.FindBestSplit(big, total, 0, 2); s.Valid() {
		t.Fatalf("split survived gamma above its gain: %+v", s)
	}
}

func TestFindBestSplitSingleBinFeature(t *testing.T) {
	// A constant (1-bin) feature with no missing values can never split.
	d := dataset.NewDense(10, 1)
	for i := 0; i < 10; i++ {
		d.Set(i, 0, 5)
	}
	cuts := dataset.BuildCuts(d, 8)
	bm := dataset.BinDense(d, cuts)
	layout := NewLayout(cuts)
	grad := gh.NewBuffer(10)
	for i := range grad {
		grad[i] = gh.Pair{G: float64(i%2*2 - 1), H: 1}
	}
	h := NewHist(layout)
	h.AccumulateRows(bm, grad, allRows(10), 0, 1)
	if s := h.FindBestSplit(tree.DefaultSplitParams(), grad.Sum(), 0, 1); s.Valid() {
		t.Fatalf("constant feature produced split %+v", s)
	}

	// An indicator column — present means one value, absent means missing —
	// has one bin too, and one split: present left, missing right.
	for i := 0; i < 10; i += 2 {
		d.SetMissing(i, 0) // the rows with G = -1
	}
	bm = dataset.BinDense(d, cuts)
	h.Reset()
	h.AccumulateRows(bm, grad, allRows(10), 0, 1)
	s := h.FindBestSplit(tree.DefaultSplitParams(), grad.Sum(), 0, 1)
	want := tree.SplitInfo{Feature: 0, Bin: 0, DefaultLeft: false, Gain: s.Gain,
		LeftG: 5, LeftH: 5, RightG: -5, RightH: 5}
	if !s.Valid() || s != want {
		t.Fatalf("indicator feature: split %+v, want %+v with a positive gain", s, want)
	}
}

func TestHistTotalSplitInvariantProperty(t *testing.T) {
	// Property: for random row subsets, hist(left) + hist(right) ==
	// hist(all), cell-wise, exactly (dyadic gradients).
	f := func(seed uint64, cutoff uint8) bool {
		bm, layout, grad := makeFixture(80, 2, 6, seed%1000)
		k := int(cutoff) % 80
		left, right := allRows(80)[:k], allRows(80)[k:]
		hl := NewHist(layout)
		hl.AccumulateRows(bm, grad, left, 0, 2)
		hr := NewHist(layout)
		hr.AccumulateRows(bm, grad, right, 0, 2)
		ha := NewHist(layout)
		ha.AccumulateRows(bm, grad, allRows(80), 0, 2)
		hl.AddHist(hr)
		for i := range ha.Data {
			if ha.Data[i] != hl.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolConcurrent(t *testing.T) {
	layout := layoutOf(8)
	p := NewPool(layout)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 500; i++ {
				h := p.Get()
				h.Data[0].G += 1
				p.Put(h)
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if p.Allocated() > 8 {
		t.Fatalf("allocated %d > workers", p.Allocated())
	}
}

// compactBestSplit is the split scan over compactly stored bins — feature f
// is bins[f], nothing else — with the arithmetic of the layout this
// package had before the fixed stride: the reference the strided scan must
// match to the last bit.
func compactBestSplit(p tree.SplitParams, total gh.Pair, bins [][]gh.Pair, allowed []bool) tree.SplitInfo {
	best := tree.InvalidSplit()
	consider := func(f, b int, defaultLeft bool, gl, hl, gr, hr float64) {
		if !p.Admissible(hl, hr) {
			return
		}
		if g := p.SplitGain(gl, hl, gr, hr); g > 0 {
			cand := tree.SplitInfo{Feature: int32(f), Bin: uint8(b), DefaultLeft: defaultLeft,
				Gain: g, LeftG: gl, LeftH: hl, RightG: gr, RightH: hr}
			if cand.Better(best) {
				best = cand
			}
		}
	}
	for f, fb := range bins {
		if (allowed != nil && !allowed[f]) || len(fb) == 0 {
			continue
		}
		var featSum gh.Pair
		for _, c := range fb {
			featSum.Add(c)
		}
		missG, missH := total.G-featSum.G, total.H-featSum.H
		var gl, hl float64
		for b := 0; b < len(fb)-1; b++ {
			gl += fb[b].G
			hl += fb[b].H
			consider(f, b, false, gl, hl, total.G-gl, total.H-hl)
			if missH != 0 || missG != 0 {
				gll, hll := gl+missG, hl+missH
				consider(f, b, true, gll, hll, total.G-gll, total.H-hll)
			}
		}
		if missH > 0 || missG != 0 {
			consider(f, len(fb)-1, false, featSum.G, featSum.H, missG, missH)
		}
	}
	return best
}

// TestFindBestSplitMatchesCompactScan: neither the strided layout nor the
// occupancy-compacted scan changes what FindSplit computes, only where the
// bins are stored and which of them are visited. On gradients that are not
// exactly summable, with and without missing values and with and without a
// column mask, the split must equal — every field, Gain to the last bit —
// the scan of every bin over compact copies of the same bins.
func TestFindBestSplitMatchesCompactScan(t *testing.T) {
	params := tree.SplitParams{Lambda: 1, Gamma: 0.01, MinChildWeight: 0.5}
	// compare scans h both ways, unmasked and masked, and returns the
	// unmasked split.
	compare := func(t *testing.T, h *Hist, total gh.Pair, seed uint64) tree.SplitInfo {
		t.Helper()
		m := h.Layout.M
		bins := make([][]gh.Pair, m)
		mask := make([]bool, m)
		for f := range bins {
			bins[f] = append([]gh.Pair(nil), h.Feature(f)...)
			mask[f] = (seed+uint64(f))%3 != 0
		}
		var unmasked tree.SplitInfo
		for _, allowed := range [][]bool{mask, nil} {
			unmasked = h.FindBestSplitMasked(params, total, 0, m, allowed)
			// != on the struct would call two NaN gains different; no case
			// here produces one (SplitGain's result must be > 0).
			if want := compactBestSplit(params, total, bins, allowed); unmasked != want {
				t.Fatalf("seed %d mask=%v:\n got %+v\nwant %+v", seed, allowed != nil, unmasked, want)
			}
		}
		return unmasked
	}

	// Fully occupied 20-bin features, filled from rows.
	const n, m = 600, 7
	for _, withMissing := range []bool{true, false} {
		for seed := uint64(40); seed < 52; seed++ {
			bm, layout, grad := makeFixture(n, m, 20, seed)
			if !withMissing {
				for i, b := range bm.Bins {
					if b == dataset.MissingBin {
						bm.Bins[i] = uint8(i % layout.NBins(i%m))
					}
				}
			}
			// Gradients that round (thirds and sevenths) and follow one
			// feature, so a split is worth taking.
			signal := int(seed) % m
			for i := range grad {
				g := float64(i%13-6) / 3
				if b := bm.At(i, signal); b != dataset.MissingBin && int(b) > layout.NBins(signal)/2 {
					g += 5
				}
				grad[i] = gh.Pair{G: g, H: float64(1+i%5) / 7}
			}
			rows := allRows(n)
			h := NewHist(layout)
			h.AccumulateRows(bm, grad, rows, 0, m)
			for f := 0; f < m; f++ {
				if h.Missing(f).IsZero() == withMissing {
					t.Fatalf("seed %d feature %d: withMissing=%v but missing cell is %+v", seed, f, withMissing, h.Missing(f))
				}
			}
			if got := compare(t, h, grad.SumRows(rows), seed); !got.Valid() {
				t.Fatalf("seed %d missing=%v: fixture produced no split", seed, withMissing)
			}
		}
	}

	// 255-bin features at every occupancy the compaction is for: each
	// feature holds `occupied` cells at pseudo-random bins, written directly.
	// The node total is feature 0's sum plus, when asked, some missing mass;
	// the other features see their rounding residue against it as missing.
	wide := layoutOf(255, 255, 255, 255, 255)
	for _, occupied := range []int{0, 1, 13, 128, 255} {
		for _, withMissing := range []bool{true, false} {
			for seed := uint64(60); seed < 66; seed++ {
				h := NewHist(wide)
				s := seed
				next := func() int {
					s = s*6364136223846793005 + 1442695040888963407
					return int(s >> 33)
				}
				for f := 0; f < wide.M; f++ {
					perm := make([]int, 255) // a seeded shuffle: the first `occupied` bins hold rows
					for i := range perm {
						j := next() % (i + 1)
						perm[i], perm[j] = perm[j], i
					}
					for k, b := range perm[:occupied] {
						g := float64(k%13-6) / 3
						if b > 127 {
							g += 5
						}
						h.cols[f][uint8(b)] = gh.Pair{G: g, H: float64(1+k%5) / 7}
					}
				}
				total := h.FeatureSum(0)
				if withMissing {
					total.Add(gh.Pair{G: -7.0 / 3, H: 9.0 / 7})
				}
				got := compare(t, h, total, seed)
				if occupied >= 13 && !got.Valid() {
					t.Fatalf("occupied=%d missing=%v seed %d: fixture produced no split", occupied, withMissing, seed)
				}
			}
		}
	}

	// The cells a test for "empty" can get wrong. Each case edits one
	// 255-bin feature that otherwise holds a ramp on a few bins, whose best
	// cut is at bin 41: a cell below it that goes unlisted moves LeftG/LeftH.
	ramp := func() (*Hist, gh.Pair) {
		h := NewHist(layoutOf(255))
		var total gh.Pair
		for k, b := range []uint8{3, 40, 41, 97, 200} {
			p := gh.Pair{G: float64(k*k) - 6.0/7, H: 2.0 / 3}
			h.cols[0][b] = p
			total.Add(p)
		}
		return h, total
	}
	missing := gh.Pair{G: 1.0 / 3, H: 5.0 / 7}
	adversarial := []struct {
		name string
		edit func(h *Hist, total *gh.Pair)
	}{
		{"negative zero cells", func(h *Hist, _ *gh.Pair) {
			negZero := math.Copysign(0, -1)
			h.cols[0][0] = gh.Pair{G: negZero, H: negZero}
			h.cols[0][50] = gh.Pair{G: negZero, H: 0}
		}},
		{"gradient without hessian", func(h *Hist, total *gh.Pair) {
			h.cols[0][20] = gh.Pair{G: 2.5}
			total.G += 2.5
		}},
		{"hessian without gradient", func(h *Hist, total *gh.Pair) {
			h.cols[0][20] = gh.Pair{H: 2.5}
			total.H += 2.5
		}},
		{"denormal cell", func(h *Hist, _ *gh.Pair) {
			h.cols[0][120] = gh.Pair{G: 5e-324, H: 5e-324}
		}},
		{"empty bin 0 with missing mass", func(h *Hist, total *gh.Pair) {
			total.Add(missing)
		}},
		{"occupied bin 0 with missing mass", func(h *Hist, total *gh.Pair) {
			h.cols[0][0] = gh.Pair{G: -4, H: 1}
			total.Add(gh.Pair{G: -4, H: 1})
			total.Add(missing)
		}},
		{"last bin occupied", func(h *Hist, total *gh.Pair) {
			h.cols[0][254] = gh.Pair{G: -9, H: 1.5}
			total.Add(gh.Pair{G: -9, H: 1.5})
		}},
		{"only the last bin occupied", func(h *Hist, total *gh.Pair) {
			h.Reset()
			h.cols[0][254] = gh.Pair{G: -9, H: 1.5}
			*total = gh.Pair{G: -9, H: 1.5}
			total.Add(missing)
		}},
		{"only bin 0 occupied", func(h *Hist, total *gh.Pair) {
			h.Reset()
			h.cols[0][0] = gh.Pair{G: -9, H: 1.5}
			*total = gh.Pair{G: -9, H: 1.5}
			total.Add(missing)
		}},
		{"all-empty feature", func(h *Hist, total *gh.Pair) {
			h.Reset()
			*total = gh.Pair{G: 3, H: 4}
		}},
		{"unused cells hold garbage", func(h *Hist, total *gh.Pair) {
			// Between the last real bin and the missing cell nothing is ever
			// read, whatever a recycled histogram left there.
			*h = *NewHist(layoutOf(100))
			h.cols[0][10], h.cols[0][99] = gh.Pair{G: 1, H: 1}, gh.Pair{G: -2, H: 1}
			h.cols[0][100], h.cols[0][254] = gh.Pair{G: math.NaN(), H: 7}, gh.Pair{G: 1e9, H: 1e9}
			*total = gh.Pair{G: -1, H: 2}
		}},
	}
	for i, tc := range adversarial {
		t.Run(tc.name, func(t *testing.T) {
			h, total := ramp()
			tc.edit(h, &total)
			compare(t, h, total, uint64(i))
		})
	}

	// Subtraction residues. A histogram that is itself a difference
	// (grandparent − uncle) carries rounding errors, so when its built child
	// takes every row of a bin, sibling = parent − built leaves there a cell
	// that is mathematically empty but holds ±1e-16: not zero, so scanned.
	t.Run("subtraction residues", func(t *testing.T) {
		bm, layout, grad := makeFixture(n, m, 20, 77)
		for i := range grad {
			grad[i] = gh.Pair{G: float64(i%13-6) / 3, H: float64(1+i%5) / 7}
		}
		var uncle, child, rest []int32
		for _, r := range allRows(n) {
			switch b := bm.At(int(r), 2); {
			case r%3 == 0:
				uncle = append(uncle, r)
			case b == 4 || b == 5 || b == 11:
				child = append(child, r)
			default:
				rest = append(rest, r)
			}
		}
		sibling, other := NewHist(layout), NewHist(layout)
		sibling.AccumulateRows(bm, grad, allRows(n), 0, m)
		other.AccumulateRows(bm, grad, uncle, 0, m)
		sibling.SubHist(other) // the parent
		other.Reset()
		other.AccumulateRows(bm, grad, child, 0, m)
		sibling.SubHist(other) // the parent minus its built child
		residues := 0
		for _, b := range []uint8{4, 5, 11} {
			if c := sibling.At(2, b); !c.IsZero() {
				if math.Abs(c.G) > 1e-9 || math.Abs(c.H) > 1e-9 {
					t.Fatalf("bin %d of the sibling holds %+v, not a residue", b, c)
				}
				residues++
			}
		}
		if residues == 0 {
			t.Fatal("fixture left no rounding residue in the emptied bins")
		}
		if got := compare(t, sibling, grad.SumRows(rest), 77); !got.Valid() {
			t.Fatal("fixture produced no split")
		}
	})
}
