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
	"math/bits"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/tree"
)

// Stride is the number of cells every feature occupies in a histogram,
// whatever its cardinality: one per uint8 bin id. The real bins sit at
// [0, NBins(f)), the rows whose value is missing accumulate into cell
// dataset.MissingBin (the last one), and no kernel writes the cells
// between. A bin id therefore indexes a feature's *[Stride]gh.Pair with no
// bounds check and no missing-value test.
const Stride = int(dataset.MissingBin) + 1

// setWords is the size of one feature's cell set: one bit per cell.
const setWords = Stride / 64

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
// space of Data and of the flat ranges AddRange takes.
func (l *Layout) Cells() int { return l.M * Stride }

// NBins returns the number of real bins of feature f.
func (l *Layout) NBins(f int) int { return int(l.nbins[f]) }

// Index returns the flat index of (feature, bin).
func (l *Layout) Index(f int, bin uint8) int { return f*Stride + int(bin) }

// Hist is one node's gradient-statistics histogram: a flat slice of
// gh.Pair indexed through a Layout, and the set of its cells that may be
// non-zero.
type Hist struct {
	Layout *Layout
	Data   []gh.Pair
	// cols[f] is feature f's cells as an array, the view the accumulate
	// kernels scatter through.
	cols []*[Stride]gh.Pair
	// set is the cell set, setWords words per feature: bit t of
	// set[f*setWords+w] stands for cell 64w+t of feature f. Every cell
	// outside it is +0 (G and H both all-zero bits), so a pass that visits
	// only the set — clear, subtract, list — leaves what a pass over every
	// cell leaves. Writers keep it a superset of the cells they touch;
	// FindBestSplitMasked and Trim shrink it to the cells that are not +0,
	// CoverMemBuf and CoverRows to the cells a small node's rows hit.
	set []uint64
}

// NewHist allocates a zeroed histogram for the layout. Its cell set holds
// every cell a kernel can write, so a caller writing such cells directly
// needs no bookkeeping.
func NewHist(l *Layout) *Hist {
	h := &Hist{Layout: l, Data: make([]gh.Pair, l.Cells()), cols: make([]*[Stride]gh.Pair, l.M),
		set: make([]uint64, l.M*setWords)}
	for f := range h.cols {
		h.cols[f] = (*[Stride]gh.Pair)(h.Data[f*Stride:])
	}
	h.MarkWritable(0, l.M)
	return h
}

// bitRange is the word whose bits [a, b) are set, 0 <= a <= b <= 64.
func bitRange(a, b int) uint64 {
	return (uint64(1)<<uint(b) - 1) &^ (uint64(1)<<uint(a) - 1)
}

// binWord is word w of the real bins [0, nb) of a feature, as a cell set.
func binWord(nb, w int) uint64 { return bitRange(0, min(max(nb-64*w, 0), 64)) }

// writable is word w of the cells a kernel can write in a feature with nb
// real bins: its bins and, in the last word, the missing-value cell.
func writable(nb, w int) uint64 {
	m := binWord(nb, w)
	if w == setWords-1 {
		m |= 1 << 63
	}
	return m
}

// nonZero is 1 if c is anything but +0 — a −0, a residue, a NaN — else 0.
func nonZero(c gh.Pair) uint64 {
	v := math.Float64bits(c.G) | math.Float64bits(c.H)
	return (v | -v) >> 63
}

// cellSet returns feature f's words of the cell set.
func (h *Hist) cellSet(f int) *[setWords]uint64 {
	return (*[setWords]uint64)(h.set[f*setWords:])
}

// MarkWritable adds every cell a kernel can write in features [fLo, fHi)
// to the cell set. The kernels call it themselves; a caller whose
// goroutines fill disjoint bin ranges of the same features at once calls
// it first, so that the kernels' calls only read the set.
func (h *Hist) MarkWritable(fLo, fHi int) {
	for f := fLo; f < fHi; f++ {
		s, nb := h.cellSet(f), int(h.Layout.nbins[f])
		for w := range s {
			if m := writable(nb, w); s[w]&m != m {
				s[w] |= m
			}
		}
	}
}

// Reset zeroes the histogram: ResetBins over every cell.
func (h *Hist) Reset() { h.ResetBins(0, h.Layout.M, 0, dataset.MissingBin) }

// StrayCell reports the first cell of features [fLo, fHi) that lies
// outside the cell set and is not +0: a broken invariant, which the
// harpdebug layer checks wherever a block is filled.
func (h *Hist) StrayCell(fLo, fHi int) (f, bin int, ok bool) {
	for f = fLo; f < fHi; f++ {
		s, col := h.cellSet(f), h.cols[f]
		for w, word := range s {
			for x := ^word; x != 0; x &= x - 1 {
				if b := w<<6 | bits.TrailingZeros64(x); nonZero(col[uint8(b)]) != 0 {
					return f, b, true
				}
			}
		}
	}
	return 0, 0, false
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

// unionSet adds o's cell set of the features the flat range [lo, hi)
// touches to h's: a cell that is +0 in both stays +0 under a cell-wise sum
// or difference.
func (h *Hist) unionSet(o *Hist, lo, hi int) {
	if lo >= hi {
		return
	}
	hs := h.set[lo/Stride*setWords : (hi+Stride-1)/Stride*setWords]
	os := o.set[lo/Stride*setWords:][:len(hs)]
	for i := range hs {
		hs[i] |= os[i]
	}
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
	h.unionSet(o, 0, len(hd))
}

// AddRange accumulates o's flat index range [lo, hi) into h.
func (h *Hist) AddRange(o *Hist, lo, hi int) {
	hd, od := h.Data[lo:hi], o.Data[lo:hi]
	for i := range hd {
		hd[i].Add(od[i])
	}
	h.unionSet(o, lo, hi)
}

// SubHist computes h -= o cell-wise: the histogram subtraction trick
// (sibling = parent − built child) over every cell.
func (h *Hist) SubHist(o *Hist) {
	hd := h.Data
	od := o.Data[:len(hd)]
	for i := range hd {
		hd[i].Sub(od[i])
	}
	h.unionSet(o, 0, len(hd))
}

// SubListed is SubHist over the features [fLo, fHi) that visits o's cell
// set only: every other cell of o is +0, and x − (+0) == x for every x, −0
// and NaN included, so h ends where SubHist leaves it, to the bit. h's set
// becomes the union of both. The subtraction trick calls it with a built
// child whose set a split scan (or Trim) has just shrunk, so it costs what
// the smaller child holds.
func (h *Hist) SubListed(o *Hist, fLo, fHi int) {
	for f := fLo; f < fHi; f++ {
		hs, os := h.cellSet(f), o.cellSet(f)
		hc, oc := h.cols[f], o.cols[f]
		for w, word := range os {
			hs[w] |= word
			for x := word; x != 0; x &= x - 1 {
				b := uint8(w<<6 | bits.TrailingZeros64(x))
				hc[b].Sub(oc[b])
			}
		}
	}
}

// Trim drops every cell that holds +0 from the cell set of features
// [fLo, fHi): the listing half of FindBestSplitMasked, for a histogram
// whose split nobody needs but whose set a later pass visits.
func (h *Hist) Trim(fLo, fHi int) {
	for f := fLo; f < fHi; f++ {
		s, col := h.cellSet(f), h.cols[f]
		for w, word := range s {
			var keep uint64
			for x := word; x != 0; x &= x - 1 {
				t := bits.TrailingZeros64(x)
				keep |= nonZero(col[uint8(w<<6|t)]) << t
			}
			s[w] = keep
		}
	}
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	c := NewHist(h.Layout)
	copy(c.Data, h.Data)
	copy(c.set, h.set)
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
// feature, one branch-free pass over the cell set lists the bins that are
// not +0, and the feature sum and the candidate enumeration run over that
// list only. The same pass shrinks the feature's set to its cells that are
// not +0, the missing cell included. The result is the one a scan of every
// bin returns, to the last bit: every partial sum starts at +0 and is never
// −0, and x + ±0 == x for such an x, so skipping an empty bin — or listing
// a −0 one — changes no sum; the candidates of an unlisted bin b > 0 repeat
// the prefix of the nearest listed bin below it, to which they lose
// SplitInfo.Better's tie-break. Bin 0 has no bin below it and is always
// listed.
func (h *Hist) FindBestSplitMasked(p tree.SplitParams, total gh.Pair, fLo, fHi int, allowed []bool) tree.SplitInfo {
	best := tree.InvalidSplit()
	// occ[:n] are the listed bin ids of the feature at hand, ascending.
	// occ[0] is never written: bin 0. A cursor masked with Stride-1 (a no-op,
	// n <= NBins(f) < Stride) and a uint8 bin id index without bounds checks.
	var occ [Stride]uint8
	for f := fLo; f < fHi; f++ {
		if allowed != nil && !allowed[f] {
			continue
		}
		nb := int(h.Layout.nbins[f])
		if nb == 0 {
			continue
		}
		col, s := h.cols[f], h.cellSet(f)
		n := 1
		for w, word := range s {
			listable := binWord(nb, w)
			if w == 0 {
				listable &^= 1 // bin 0
			}
			var keep uint64
			for x := word & listable; x != 0; x &= x - 1 {
				t := bits.TrailingZeros64(x)
				b := uint8(w<<6 | t)
				nz := nonZero(col[b])
				keep |= nz << t
				occ[n&(Stride-1)] = b
				n += int(nz)
			}
			// Bin 0, the missing cell and cells past the last bin stay in
			// the set while they are not +0; none of them is listed.
			for x := word &^ listable; x != 0; x &= x - 1 {
				t := bits.TrailingZeros64(x)
				keep |= nonZero(col[uint8(w<<6|t)]) << t
			}
			s[w] = keep
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
