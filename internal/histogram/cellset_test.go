package histogram

import (
	"math"
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/tree"
)

// The passes that visit the cell set only — the split listing, the
// subtraction, the clear — against test-local copies of the full-layout
// code they replaced, on histograms whose set is exact, a random superset
// of the non-+0 cells, or every cell.

// fullLayoutBestSplit is FindBestSplitMasked as it was before the cell set:
// the listing pass walks col[1:nb] and drops the bins whose G and H are
// both ±0.
func fullLayoutBestSplit(h *Hist, p tree.SplitParams, total gh.Pair, fLo, fHi int, allowed []bool) tree.SplitInfo {
	best := tree.InvalidSplit()
	consider := func(cand tree.SplitInfo) {
		if !p.Admissible(cand.LeftH, cand.RightH) {
			return
		}
		if cand.Gain = p.SplitGain(cand.LeftG, cand.LeftH, cand.RightG, cand.RightH); cand.Gain > 0 && cand.Better(best) {
			best = cand
		}
	}
	var occ [Stride]uint8
	const sign = 1 << 63
	for f := fLo; f < fHi; f++ {
		if allowed != nil && !allowed[f] {
			continue
		}
		nb := int(h.Layout.nbins[f])
		if nb == 0 {
			continue
		}
		col := h.cols[f]
		n := 1
		for i, c := range col[1:nb] {
			u := (math.Float64bits(c.G) | math.Float64bits(c.H)) &^ sign
			occ[n&(Stride-1)] = uint8(i + 1)
			n += int((u + (sign - 1)) >> 63)
		}
		featSum := gh.Pair{}
		for i := 0; i < n; i++ {
			featSum.Add(col[occ[i]])
		}
		missG, missH := total.G-featSum.G, total.H-featSum.H
		last := uint8(nb - 1)
		cuts := n
		if occ[n-1] == last {
			cuts--
		}
		var gl, hl float64
		for i := 0; i < cuts; i++ {
			b := occ[i]
			gl += col[b].G
			hl += col[b].H
			consider(tree.SplitInfo{Feature: int32(f), Bin: b, LeftG: gl, LeftH: hl, RightG: total.G - gl, RightH: total.H - hl})
			if missH != 0 || missG != 0 {
				gll, hll := gl+missG, hl+missH
				consider(tree.SplitInfo{Feature: int32(f), Bin: b, DefaultLeft: true, LeftG: gll, LeftH: hll, RightG: total.G - gll, RightH: total.H - hll})
			}
		}
		if missH > 0 || missG != 0 {
			consider(tree.SplitInfo{Feature: int32(f), Bin: last, LeftG: featSum.G, LeftH: featSum.H, RightG: missG, RightH: missH})
		}
	}
	return best
}

// fullLayoutSub is SubHist as it was before the cell set: every cell.
func fullLayoutSub(h, o *Hist) {
	for i := range h.Data {
		h.Data[i].Sub(o.Data[i])
	}
}

// isPlusZero is the cell-set definition written out: G and H both +0.
func isPlusZero(c gh.Pair) bool { return sameBits(c, gh.Pair{}) }

// sameBits compares two cells bit for bit (NaN equals itself, −0 is not +0).
func sameBits(a, b gh.Pair) bool {
	return math.Float64bits(a.G) == math.Float64bits(b.G) && math.Float64bits(a.H) == math.Float64bits(b.H)
}

// setExact makes h's cell set exactly its cells that are not +0.
func setExact(h *Hist) {
	clear(h.set)
	for i, c := range h.Data {
		if !isPlusZero(c) {
			h.set[i/64] |= 1 << (i % 64)
		}
	}
}

// setFull puts every cell in h's set.
func setFull(h *Hist) {
	for i := range h.set {
		h.set[i] = ^uint64(0)
	}
}

// setSuperset makes h's set its non-+0 cells plus a seeded random half of
// the others.
func setSuperset(seed uint64) func(*Hist) {
	return func(h *Hist) {
		setExact(h)
		s := seed
		for i := range h.set {
			s = s*6364136223846793005 + 1442695040888963407
			h.set[i] |= s ^ s<<17
		}
	}
}

// edgeHist is a histogram over features of 255, 100, 2, 1, 0 and 255 bins
// holding what a set-restricted pass can get wrong: −0 in G, H or both,
// 1e-300 residues, G ≠ 0 with H = 0, a NaN (the last feature), an empty
// last bin (feature 1), a non-zero missing cell (features 0, 3 and the
// 0-bin feature 4); unused cells stay +0. The node total is feature 0's
// bins plus its missing cell, so the other features see a residue as
// missing mass.
func edgeHist(seed uint64) (*Hist, gh.Pair) {
	h := NewHist(layoutOf(255, 100, 2, 1, 0, 255))
	s := seed
	next := func() int {
		s = s*6364136223846793005 + 1442695040888963407
		return int(s >> 33)
	}
	negZero := math.Copysign(0, -1)
	occupancy := 1 + next()%8 // one cell in occupancy is not empty
	for f := 0; f < h.Layout.M; f++ {
		nb := h.Layout.NBins(f)
		for b := 0; b < nb; b++ {
			if next()%occupancy != 0 {
				continue
			}
			var c gh.Pair
			switch next() % 8 {
			case 0:
				c = gh.Pair{G: negZero, H: negZero}
			case 1:
				c = gh.Pair{G: negZero}
			case 2:
				c = gh.Pair{H: negZero}
			case 3:
				c = gh.Pair{G: 1e-300, H: -1e-300}
			case 4:
				c = gh.Pair{G: 2.5}
			default:
				c = gh.Pair{G: float64(next()%13-6) / 3, H: float64(1+next()%5) / 7}
			}
			h.cols[f][b] = c
		}
	}
	h.cols[1][99] = gh.Pair{}
	h.cols[5][next()%255] = gh.Pair{G: math.NaN(), H: 1}
	for _, f := range []int{0, 3, 4} {
		h.cols[f][255] = gh.Pair{G: -7.0 / 3, H: 9.0 / 7}
	}
	total := h.FeatureSum(0)
	total.Add(h.Missing(0))
	return h, total
}

// setVariants are the cell sets a pass must agree on.
func setVariants(seed uint64) map[string]func(*Hist) {
	return map[string]func(*Hist){"exact": setExact, "superset": setSuperset(seed), "full": setFull}
}

// checkSet fails unless every cell outside h's set is +0.
func checkSet(t *testing.T, h *Hist, what string) {
	t.Helper()
	if f, b, bad := h.StrayCell(0, h.Layout.M); bad {
		t.Fatalf("%s: cell %d of feature %d = %+v lies outside the cell set", what, b, f, h.At(f, uint8(b)))
	}
}

// TestFindBestSplitCellSetMatchesFullLayout: the scan over the cell set
// returns the full-layout scan's SplitInfo (== on the struct) whatever
// superset of the non-+0 cells the set is, and leaves each scanned
// feature's set exact without touching a cell.
func TestFindBestSplitCellSetMatchesFullLayout(t *testing.T) {
	params := tree.SplitParams{Lambda: 1, Gamma: 0.01, MinChildWeight: 0.1}
	valid := 0
	for seed := uint64(1); seed <= 60; seed++ {
		h, total := edgeHist(seed)
		m := h.Layout.M
		mask := make([]bool, m)
		for f := range mask {
			mask[f] = (seed+uint64(f))%3 != 0
		}
		exact := h.Clone()
		setExact(exact)
		for _, allowed := range [][]bool{nil, mask} {
			want := fullLayoutBestSplit(h, params, total, 0, m, allowed)
			if want.Valid() {
				valid++
			}
			for name, setUp := range setVariants(seed) {
				c := h.Clone()
				setUp(c)
				if got := c.FindBestSplitMasked(params, total, 0, m, allowed); got != want {
					t.Fatalf("seed %d %s set, mask=%v:\n got %+v\nwant %+v", seed, name, allowed != nil, got, want)
				}
				for i := range c.Data {
					if !sameBits(c.Data[i], h.Data[i]) {
						t.Fatalf("seed %d %s set: the scan changed cell %d", seed, name, i)
					}
				}
				for f := 0; f < m; f++ {
					if (allowed == nil || allowed[f]) && h.Layout.NBins(f) > 0 && *c.cellSet(f) != *exact.cellSet(f) {
						t.Fatalf("seed %d %s set: feature %d set %x after the scan, want %x", seed, name, f, *c.cellSet(f), *exact.cellSet(f))
					}
				}
				checkSet(t, c, name)
			}
		}
	}
	if valid < 60 {
		t.Fatalf("only %d of 120 fixtures have a split", valid)
	}
}

// TestSubListedMatchesFullLayout: subtracting over the built child's set
// leaves every cell — the missing cell included — Float64bits-equal to the
// full-layout subtraction, and keeps the invariant on the result.
func TestSubListedMatchesFullLayout(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		parent, _ := edgeHist(seed)
		built, _ := edgeHist(seed + 1000)
		want := parent.Clone()
		fullLayoutSub(want, built)
		for name, setUp := range setVariants(seed) {
			o := built.Clone()
			setUp(o)
			got := parent.Clone()
			got.SubListed(o, 0, got.Layout.M)
			for i := range want.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("seed %d %s set: cell %d = %+v, full layout %+v", seed, name, i, got.Data[i], want.Data[i])
				}
			}
			checkSet(t, got, name)
		}
	}
}

// TestCoverSetsTheRowsCells: a block filled from fewer rows than its
// features have writable cells ends with exactly the cells those rows hit
// in its set; from more rows, with every writable cell.
func TestCoverSetsTheRowsCells(t *testing.T) {
	bm, layout, grad := makeFixture(300, 6, 40, 9)
	blocks := dataset.NewColumnBlocks(bm, 4)
	for _, n := range []int{0, 1, 7, 30, 300} {
		rows := allRows(300)[:n]
		mb := gh.BuildMemBuf(rows, grad)
		hm, hr, want := NewHist(layout), NewHist(layout), NewHist(layout)
		for b := 0; b < blocks.NumBlocks(); b++ {
			lo, hi, panel := blocks.Block(b)
			hm.ResetBins(lo, hi, 0, dataset.MissingBin)
			hm.AccumulatePanelRows(panel, hi-lo, mb, lo, hi)
			hm.CoverMemBuf(panel, hi-lo, mb, lo, hi)
			hr.ResetBins(lo, hi, 0, dataset.MissingBin)
			hr.AccumulatePanelRowsGrad(panel, hi-lo, rows, grad, lo, hi)
			hr.CoverRows(panel, hi-lo, rows, lo, hi)
			cells := 0
			for f := lo; f < hi; f++ {
				cells += layout.NBins(f) + 1
			}
			if n*(hi-lo) < cells {
				clear(want.set[lo*setWords : hi*setWords])
				for _, r := range rows {
					for f := lo; f < hi; f++ {
						i := layout.Index(f, bm.At(int(r), f))
						want.set[i/64] |= 1 << (i % 64)
					}
				}
			}
		}
		for name, h := range map[string]*Hist{"membuf": hm, "rows": hr} {
			for i := range want.set {
				if h.set[i] != want.set[i] {
					t.Fatalf("%d rows, %s: set word %d = %x, want %x", n, name, i, h.set[i], want.set[i])
				}
			}
			checkSet(t, h, name)
		}
	}
}

// TestTrimAndResetFollowTheSet: Trim leaves the exact set; a whole-feature
// clear leaves every cell +0 and the writable cells in the set; a
// narrower bin range zeroes its cells only and leaves the set alone.
func TestTrimAndResetFollowTheSet(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		h, _ := edgeHist(seed)
		exact := h.Clone()
		setExact(exact)
		for name, setUp := range setVariants(seed) {
			c := h.Clone()
			setUp(c)
			c.Trim(0, c.Layout.M)
			for i := range c.set {
				if c.set[i] != exact.set[i] {
					t.Fatalf("seed %d %s set: word %d = %x after Trim, want %x", seed, name, i, c.set[i], exact.set[i])
				}
			}

			c = h.Clone()
			setUp(c)
			before := append([]uint64(nil), c.set...)
			c.ResetBins(0, c.Layout.M, 10, 40)
			for i, cell := range c.Data {
				if b := i % Stride; b >= 10 && b < 40 && !isPlusZero(cell) {
					t.Fatalf("seed %d %s set: cell %d = %+v after ResetBins(10, 40)", seed, name, i, cell)
				} else if (b < 10 || b >= 40) && !sameBits(cell, h.Data[i]) {
					t.Fatalf("seed %d %s set: cell %d outside the range changed", seed, name, i)
				}
			}
			for i := range before {
				if c.set[i] != before[i] {
					t.Fatalf("seed %d %s set: a partial ResetBins changed set word %d", seed, name, i)
				}
			}

			c.Reset()
			fresh := NewHist(c.Layout)
			for i, cell := range c.Data {
				if !isPlusZero(cell) {
					t.Fatalf("seed %d %s set: cell %d = %+v after Reset", seed, name, i, cell)
				}
			}
			for i := range c.set {
				if c.set[i] != fresh.set[i] {
					t.Fatalf("seed %d %s set: word %d = %x after Reset, want the writable cells %x", seed, name, i, c.set[i], fresh.set[i])
				}
			}
		}
	}
}
