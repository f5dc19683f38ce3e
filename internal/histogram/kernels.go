package histogram

import (
	"math/bits"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
)

// The BuildHist kernels. Every one scatters through cols, the histogram's
// per-feature *[Stride]gh.Pair views: a uint8 bin id needs no bounds check
// there, and a missing value is just bin id dataset.MissingBin, whose cell
// nothing else uses — so the inner loops carry no data-dependent branch.
// Each first adds its block's writable cells to the cell set: O(features)
// per call, nothing per row.
// Bins are read from a row-major "panel": row r's bins of features
// [fLo, fHi) start at panel[r*width]. A feature-block panel
// (dataset.ColumnBlocks) has width fHi-fLo; the whole binned matrix is the
// panel bm.Bins[fLo:] of width M.

// AccumulatePanelRows adds the rows of mb into the histogram for features
// [fLo, fHi), reading (rowid, g, h) sequentially from the MemBuf — the
// paper's gradient-replica optimization — and bins from the panel. The
// write region is confined to the block's cells: this is the block-wise
// kernel of Sec. IV-A.
func (h *Hist) AccumulatePanelRows(panel []uint8, width int, mb gh.MemBuf, fLo, fHi int) {
	h.MarkWritable(fLo, fHi)
	cols := h.cols[fLo:fHi]
	if len(cols) == 4 {
		// The default feature block (the paper's feature_blk = 4), unrolled:
		// the four column pointers stay in registers and the inner loop
		// disappears, worth about a quarter of the kernel's time at the
		// root of a 400k x 28 dataset (DESIGN.md, "Histogram layout").
		c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
		for _, e := range mb {
			bins := (*[4]uint8)(panel[int(e.Row)*width:])
			c := &c0[bins[0]]
			c.G += e.G
			c.H += e.H
			c = &c1[bins[1]]
			c.G += e.G
			c.H += e.H
			c = &c2[bins[2]]
			c.G += e.G
			c.H += e.H
			c = &c3[bins[3]]
			c.G += e.G
			c.H += e.H
		}
		return
	}
	for _, e := range mb {
		bins := panel[int(e.Row)*width:][:len(cols)]
		for j, b := range bins {
			c := &cols[j][b]
			c.G += e.G
			c.H += e.H
		}
	}
}

// AccumulatePanelRowsGrad is AccumulatePanelRows for engines without MemBuf:
// gradients are gathered from the per-row gradient buffer (the
// random-access pattern MemBuf eliminates).
func (h *Hist) AccumulatePanelRowsGrad(panel []uint8, width int, rows []int32, grad gh.Buffer, fLo, fHi int) {
	h.MarkWritable(fLo, fHi)
	cols := h.cols[fLo:fHi]
	for _, r := range rows {
		bins := panel[int(r)*width:][:len(cols)]
		p := grad[r]
		for j, b := range bins {
			c := &cols[j][b]
			c.G += p.G
			c.H += p.H
		}
	}
}

// AccumulateMemBuf is AccumulatePanelRows reading bins from the row-major
// binned matrix.
func (h *Hist) AccumulateMemBuf(bm *dataset.BinnedMatrix, mb gh.MemBuf, fLo, fHi int) {
	h.AccumulatePanelRows(bm.Bins[fLo:], bm.M, mb, fLo, fHi)
}

// AccumulateRows is AccumulatePanelRowsGrad reading bins from the row-major
// binned matrix.
func (h *Hist) AccumulateRows(bm *dataset.BinnedMatrix, grad gh.Buffer, rows []int32, fLo, fHi int) {
	h.AccumulatePanelRowsGrad(bm.Bins[fLo:], bm.M, rows, grad, fLo, fHi)
}

// CoverMemBuf narrows the cell set of features [fLo, fHi), just cleared and
// filled from the rows of mb read off a panel of the given width, to the
// cells those rows hit — when there are fewer rows than the features have
// writable cells, so that marking them costs less than a later pass over
// the writable cells would. Every cell it leaves out was cleared and not
// written since: it is +0.
func (h *Hist) CoverMemBuf(panel []uint8, width int, mb gh.MemBuf, fLo, fHi int) {
	if !h.fewRows(len(mb), fLo, fHi) {
		return
	}
	s := h.set[fLo*setWords : fHi*setWords]
	for _, e := range mb {
		coverRow(s, panel[int(e.Row)*width:][:fHi-fLo])
	}
}

// CoverRows is CoverMemBuf for a row-id list.
func (h *Hist) CoverRows(panel []uint8, width int, rows []int32, fLo, fHi int) {
	if !h.fewRows(len(rows), fLo, fHi) {
		return
	}
	s := h.set[fLo*setWords : fHi*setWords]
	for _, r := range rows {
		coverRow(s, panel[int(r)*width:][:fHi-fLo])
	}
}

// fewRows reports whether n rows hit fewer cells of features [fLo, fHi)
// than those features have writable cells, and if so empties their sets.
func (h *Hist) fewRows(n, fLo, fHi int) bool {
	cells := 0
	for _, nb := range h.Layout.nbins[fLo:fHi] {
		cells += int(nb) + 1
	}
	if n*(fHi-fLo) >= cells {
		return false
	}
	clear(h.set[fLo*setWords : fHi*setWords])
	return true
}

// coverRow adds the cells one row's bins hit to s, the cell set of the
// bins' features.
func coverRow(s []uint64, bins []uint8) {
	for j, b := range bins {
		s[j*setWords+int(b>>6)] |= 1 << (b & 63)
	}
}

// binSpan turns the bin range [binLo, binHi) of the bin-range kernels into
// the inclusive width their one unsigned compare tests: bin b is in range
// iff b-binLo <= span. The range that ends at dataset.MissingBin also owns
// the missing-value cell, so a set of ranges tiling [0, MissingBin) fills
// every cell exactly once.
func binSpan(binLo, binHi uint8) uint8 {
	if binHi == dataset.MissingBin {
		return dataset.MissingBin - binLo
	}
	return binHi - 1 - binLo
}

// ResetBins zeroes the cells a bin-range kernel called with the same
// arguments may write — bins [binLo, binHi) of features [fLo, fHi), plus
// their missing-value cells when the range ends at dataset.MissingBin — by
// visiting the cell set only, since every other cell is +0 already: the
// clear of a recycled histogram costs what its last owner left there. A
// task that fills a block of a pooled histogram calls it first.
// (0, MissingBin) clears whole features and resets their set to the cells
// a kernel writes; a narrower range leaves the set alone, because tasks
// filling other ranges of the same features may be running.
func (h *Hist) ResetBins(fLo, fHi int, binLo, binHi uint8) {
	if binLo >= binHi {
		return
	}
	lo := int(binLo)
	hi := lo + int(binSpan(binLo, binHi)) + 1
	for f := fLo; f < fHi; f++ {
		s, col := h.cellSet(f), h.cols[f]
		for w, word := range s {
			a, b := max(lo-w<<6, 0), min(hi-w<<6, 64)
			if a >= b {
				continue
			}
			for x := word & bitRange(a, b); x != 0; x &= x - 1 {
				col[uint8(w<<6|bits.TrailingZeros64(x))] = gh.Pair{}
			}
		}
		if lo == 0 && hi == Stride {
			nb := int(h.Layout.nbins[f])
			for w := range s {
				s[w] = writable(nb, w)
			}
		}
	}
}

// AccumulatePanelRowsBinRange is AccumulatePanelRows restricted to bins in
// [binLo, binHi) of every feature in the block — the bin-level parallelism
// of Sec. IV-A. Rows whose bin falls outside the range are read but not
// accumulated (the extra-read cost the paper attributes to bin blocking).
func (h *Hist) AccumulatePanelRowsBinRange(panel []uint8, width int, mb gh.MemBuf, fLo, fHi int, binLo, binHi uint8) {
	if binLo >= binHi {
		return
	}
	h.MarkWritable(fLo, fHi)
	cols := h.cols[fLo:fHi]
	span := binSpan(binLo, binHi)
	for _, e := range mb {
		bins := panel[int(e.Row)*width:][:len(cols)]
		for j, b := range bins {
			if b-binLo > span {
				continue
			}
			c := &cols[j][b]
			c.G += e.G
			c.H += e.H
		}
	}
}

// AccumulatePanelRowsGradBinRange combines the gathered-gradient and
// bin-range variants.
func (h *Hist) AccumulatePanelRowsGradBinRange(panel []uint8, width int, rows []int32, grad gh.Buffer, fLo, fHi int, binLo, binHi uint8) {
	if binLo >= binHi {
		return
	}
	h.MarkWritable(fLo, fHi)
	cols := h.cols[fLo:fHi]
	span := binSpan(binLo, binHi)
	for _, r := range rows {
		bins := panel[int(r)*width:][:len(cols)]
		p := grad[r]
		for j, b := range bins {
			if b-binLo > span {
				continue
			}
			c := &cols[j][b]
			c.G += p.G
			c.H += p.H
		}
	}
}
