// Package histogram implements the model side of GBDT training: the GHSum
// gradient-statistics cubes of the paper's Figure 5. A node's histogram
// holds one gh.Pair per (feature, bin); the package provides a
// fixed-stride layout with a missing-value cell per feature (so BuildHist
// scatters without a branch or a bounds check), a reusable histogram pool
// (hot-loop allocations are the enemy), replica reduction for data
// parallelism, the parent-minus-child subtraction trick, and the FindSplit
// enumeration of Eq. (3).
package histogram

import (
	"fmt"
	"math"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/tree"
)

// Stride is the number of cells every feature occupies in a histogram,
// whatever its cardinality: one per uint8 bin id. The real bins sit at
// [0, NBins(f)), the rows whose value is missing accumulate into cell
// dataset.MissingBin (the last one), and the cells between are never
// written. A bin id therefore indexes a feature's *[Stride]gh.Pair with no
// bounds check and no missing-value test.
const Stride = int(dataset.MissingBin) + 1

// Layout maps (feature, bin) to a flat histogram index: feature f occupies
// [f*Stride, (f+1)*Stride).
type Layout struct {
	M     int
	nbins []int32 // real bins per feature, length M
	total int     // sum of nbins
}

// NewLayout derives the histogram layout from the dataset cuts.
func NewLayout(cuts *dataset.Cuts) *Layout {
	l := &Layout{M: cuts.M, nbins: make([]int32, cuts.M)}
	for f := range l.nbins {
		l.nbins[f] = int32(cuts.NumBins(f))
		l.total += cuts.NumBins(f)
	}
	return l
}

// TotalBins returns the number of real bins per node, over all features:
// what FindSplit scans and what a histogram allreduce would have to send.
func (l *Layout) TotalBins() int { return l.total }

// Cells returns the storage length of a histogram, M*Stride: the index
// space of Data and of the flat ranges AddRange and ResetRange take.
func (l *Layout) Cells() int { return l.M * Stride }

// NBins returns the number of real bins of feature f.
func (l *Layout) NBins(f int) int { return int(l.nbins[f]) }

// Index returns the flat index of (feature, bin).
func (l *Layout) Index(f int, bin uint8) int { return f*Stride + int(bin) }

// FeatureRange returns the flat index range [lo, hi) of the features in
// [fLo, fHi).
func (l *Layout) FeatureRange(fLo, fHi int) (lo, hi int) {
	return fLo * Stride, fHi * Stride
}

// Hist is one node's gradient-statistics histogram: a flat slice of
// gh.Pair indexed through a Layout.
type Hist struct {
	Layout *Layout
	Data   []gh.Pair
	// cols[f] is feature f's cells as an array, the view the accumulate
	// kernels scatter through.
	cols []*[Stride]gh.Pair
}

// NewHist allocates a zeroed histogram for the layout.
func NewHist(l *Layout) *Hist {
	h := &Hist{Layout: l, Data: make([]gh.Pair, l.Cells()), cols: make([]*[Stride]gh.Pair, l.M)}
	for f := range h.cols {
		h.cols[f] = (*[Stride]gh.Pair)(h.Data[f*Stride:])
	}
	return h
}

// Reset zeroes the histogram.
func (h *Hist) Reset() {
	for i := range h.Data {
		h.Data[i] = gh.Pair{}
	}
}

// ResetRange zeroes the flat index range [lo, hi).
func (h *Hist) ResetRange(lo, hi int) {
	d := h.Data[lo:hi]
	for i := range d {
		d[i] = gh.Pair{}
	}
}

// At returns the accumulated pair of (feature, bin).
func (h *Hist) At(f int, bin uint8) gh.Pair { return h.cols[f][bin] }

// Feature returns the real bins of feature f (aliases internal storage).
func (h *Hist) Feature(f int) []gh.Pair {
	return h.cols[f][:h.Layout.nbins[f]]
}

// Missing returns the pair accumulated from the rows whose value of
// feature f is missing.
func (h *Hist) Missing(f int) gh.Pair { return h.cols[f][dataset.MissingBin] }

// FeatureSum returns the total pair over the real bins of feature f
// (excludes the missing-value cell).
func (h *Hist) FeatureSum(f int) gh.Pair {
	var s gh.Pair
	for _, p := range h.Feature(f) {
		s.Add(p)
	}
	return s
}

// AddHist accumulates o into h cell-wise (replica reduction of data
// parallelism).
func (h *Hist) AddHist(o *Hist) {
	// Hoist both slice headers and tie od's length to hd's so the
	// compiler proves hd[i] and od[i] in bounds (one hoisted slice check
	// instead of two per cell; see COMPILER_baseline.txt).
	hd := h.Data
	od := o.Data[:len(hd)]
	for i := range hd {
		hd[i].Add(od[i])
	}
}

// AddRange accumulates o's flat index range [lo, hi) into h.
func (h *Hist) AddRange(o *Hist, lo, hi int) {
	hd, od := h.Data[lo:hi], o.Data[lo:hi]
	for i := range hd {
		hd[i].Add(od[i])
	}
}

// SubHist computes h -= o cell-wise: the histogram subtraction trick
// (sibling = parent − built child).
func (h *Hist) SubHist(o *Hist) { h.SubRange(o, 0, len(h.Data)) }

// SubRange is SubHist over the flat index range [lo, hi): the subtraction
// of one feature block, for callers that go on to scan the block while it
// is still in cache.
func (h *Hist) SubRange(o *Hist, lo, hi int) {
	hd, od := h.Data[lo:hi], o.Data[lo:hi]
	for i := range hd {
		hd[i].Sub(od[i])
	}
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	c := NewHist(h.Layout)
	copy(c.Data, h.Data)
	return c
}

// Total returns the sum over the real bins of features [fLo, fHi).
func (h *Hist) Total(fLo, fHi int) gh.Pair {
	var s gh.Pair
	for f := fLo; f < fHi; f++ {
		for _, p := range h.Feature(f) {
			s.Add(p)
		}
	}
	return s
}

// FindBestSplit enumerates all (feature, bin) split candidates of features
// [fLo, fHi) against the node total ⟨G,H⟩ (which includes rows whose value
// is missing for any given feature) and returns the best admissible split.
// Missing rows are tried in both directions (sparsity-aware enumeration);
// DefaultLeft records the winning direction.
func (h *Hist) FindBestSplit(p tree.SplitParams, total gh.Pair, fLo, fHi int) tree.SplitInfo {
	return h.FindBestSplitMasked(p, total, fLo, fHi, nil)
}

// FindBestSplitMasked is FindBestSplit restricted to features whose mask
// entry is true (nil mask = all features). Column subsampling evaluates
// splits only on the tree's sampled feature set.
//
// The scan costs what the node holds, not what the layout could hold: per
// feature, one branch-free pass lists the bins that are not empty (G and H
// both ±0), and the feature sum and the candidate enumeration run over that
// list only. The result is the one a scan of every bin returns, to the last
// bit: x + ±0 == x for every partial sum that starts at +0, so skipping an
// empty bin changes no sum, and the candidates of an empty bin b > 0 repeat
// the prefix of the nearest listed bin below it, to which they lose
// SplitInfo.Better's tie-break. Bin 0 has no bin below it and is always
// listed.
func (h *Hist) FindBestSplitMasked(p tree.SplitParams, total gh.Pair, fLo, fHi int, allowed []bool) tree.SplitInfo {
	best := tree.InvalidSplit()
	// occ[:n] are the listed bin ids of the feature at hand, ascending.
	// occ[0] is never written: bin 0. A cursor masked with Stride-1 (a no-op,
	// n <= NBins(f) < Stride) and a uint8 bin id index without bounds checks.
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
			// u is zero iff G and H are both ±0 (the sign bits are masked
			// out); adding 2^63-1 carries into the top bit iff it is not.
			u := (math.Float64bits(c.G) | math.Float64bits(c.H)) &^ sign
			occ[n&(Stride-1)] = uint8(i + 1)
			n += int((u + (sign - 1)) >> 63)
		}
		featSum := gh.Pair{}
		for i := 0; i < n; i++ {
			featSum.Add(col[occ[i&(Stride-1)]])
		}
		missG := total.G - featSum.G
		missH := total.H - featSum.H
		// The last real bin is no cut of the loop below (nothing present
		// would go right); when listed it is the list's last entry.
		last := uint8(nb - 1)
		cuts := n
		if occ[(n-1)&(Stride-1)] == last {
			cuts--
		}
		var gl, hl float64
		for i := 0; i < cuts; i++ {
			b := occ[i&(Stride-1)]
			gl += col[b].G
			hl += col[b].H
			// Missing goes right.
			grr := total.G - gl
			hrr := total.H - hl
			if p.Admissible(hl, hrr) {
				if g := p.SplitGain(gl, hl, grr, hrr); g > 0 {
					cand := tree.SplitInfo{Feature: int32(f), Bin: b, DefaultLeft: false,
						Gain: g, LeftG: gl, LeftH: hl, RightG: grr, RightH: hrr}
					if cand.Better(best) {
						best = cand
					}
				}
			}
			// Missing goes left.
			if missH != 0 || missG != 0 {
				gll := gl + missG
				hll := hl + missH
				grl := total.G - gll
				hrl := total.H - hll
				if p.Admissible(hll, hrl) {
					if g := p.SplitGain(gll, hll, grl, hrl); g > 0 {
						cand := tree.SplitInfo{Feature: int32(f), Bin: b, DefaultLeft: true,
							Gain: g, LeftG: gll, LeftH: hll, RightG: grl, RightH: hrl}
						if cand.Better(best) {
							best = cand
						}
					}
				}
			}
		}
		// Split "all non-missing left, missing right" at the last bin.
		if missH > 0 || missG != 0 {
			gl, hl := featSum.G, featSum.H
			if p.Admissible(hl, missH) {
				if g := p.SplitGain(gl, hl, missG, missH); g > 0 {
					cand := tree.SplitInfo{Feature: int32(f), Bin: last, DefaultLeft: false,
						Gain: g, LeftG: gl, LeftH: hl, RightG: missG, RightH: missH}
					if cand.Better(best) {
						best = cand
					}
				}
			}
		}
	}
	return best
}

// CheckTotal verifies that the histogram's grand total over all features
// within [fLo, fHi) equals expected (used by invariant tests).
func (h *Hist) CheckTotal(expected gh.Pair, fLo, fHi int, tol float64) error {
	got := h.Total(fLo, fHi)
	if diff := abs(got.G-expected.G) + abs(got.H-expected.H); diff > tol {
		return fmt.Errorf("histogram: total mismatch got=%+v want=%+v", got, expected)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
