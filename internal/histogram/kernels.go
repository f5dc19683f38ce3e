package histogram

import (
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
)

// The BuildHist kernels. Every one scatters through cols, the histogram's
// per-feature *[Stride]gh.Pair views: a uint8 bin id needs no bounds check
// there, and a missing value is just bin id dataset.MissingBin, whose cell
// nothing else uses — so the inner loops carry no data-dependent branch.
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
// arguments may write: bins [binLo, binHi) of features [fLo, fHi), plus
// their missing-value cells when the range ends at dataset.MissingBin. A
// task that fills a block of a pooled histogram (whose contents are
// unspecified) calls it first; (0, MissingBin) clears whole features.
func (h *Hist) ResetBins(fLo, fHi int, binLo, binHi uint8) {
	if binLo >= binHi {
		return
	}
	n := int(binSpan(binLo, binHi)) + 1
	for f := fLo; f < fHi; f++ {
		lo := f*Stride + int(binLo)
		h.ResetRange(lo, lo+n)
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
