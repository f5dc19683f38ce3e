package dataset

import "fmt"

// BinnedMatrix stores the input after histogram initialization: a row-major
// N x M matrix of 1-byte bin ids (MissingBin for missing values). This is
// the "Input" structure of the paper's Figure 5.
type BinnedMatrix struct {
	N, M int
	Bins []uint8
}

// At returns the bin id at row i, feature f.
func (b *BinnedMatrix) At(i, f int) uint8 { return b.Bins[i*b.M+f] }

// Row returns the bin ids of row i (aliases internal storage).
func (b *BinnedMatrix) Row(i int) []uint8 { return b.Bins[i*b.M : (i+1)*b.M] }

// Validate checks structural consistency against the cuts.
func (b *BinnedMatrix) Validate(c *Cuts) error {
	if len(b.Bins) != b.N*b.M {
		return fmt.Errorf("dataset: binned length %d != %d*%d", len(b.Bins), b.N, b.M)
	}
	if c == nil {
		return nil
	}
	if c.M != b.M {
		return fmt.Errorf("dataset: cuts M=%d != binned M=%d", c.M, b.M)
	}
	for f := 0; f < b.M; f++ {
		nb := c.NumBins(f)
		for i := 0; i < b.N; i++ {
			v := b.At(i, f)
			if v != MissingBin && int(v) >= nb {
				return fmt.Errorf("dataset: bin %d out of range (feature %d has %d bins)", v, f, nb)
			}
		}
	}
	return nil
}

// BinDense quantizes a dense matrix with the given cuts; NaN cells become
// MissingBin. Each feature is sorted once and merged against its cuts, the
// features in parallel over GOMAXPROCS workers (see setup).
func BinDense(d *Dense, c *Cuts) *BinnedMatrix {
	b := &BinnedMatrix{N: d.N, M: d.M, Bins: make([]uint8, d.N*d.M)}
	setup(denseSource(d), 0, c, b)
	return b
}

// BinCSR quantizes a CSR matrix with the given cuts; absent entries and
// explicit NaNs become MissingBin. It runs the per-feature sort and merge
// of BinDense over the matrix's per-feature buckets.
func BinCSR(s *CSR, c *Cuts) *BinnedMatrix {
	b := &BinnedMatrix{N: s.N, M: s.M, Bins: make([]uint8, s.N*s.M)}
	setup(csrSource(s), 0, c, b)
	return b
}

// ColumnBlocks is the feature-block panel layout of a binned matrix: the M
// features are split into contiguous blocks of width <= blockWidth, and each
// block is stored as its own row-major N x width panel. A (row block x
// feature block) tile is then a contiguous-in-rows strip of a small panel,
// which is what the paper's block-wise BuildHist kernels scan.
type ColumnBlocks struct {
	N, M       int
	BlockWidth int
	Starts     []int // feature index where each block begins; len = NumBlocks+1
	Panels     [][]uint8
}

// NumBlocks returns the number of feature blocks.
func (cb *ColumnBlocks) NumBlocks() int { return len(cb.Panels) }

// Block returns the feature range [lo, hi) and the panel of block b.
func (cb *ColumnBlocks) Block(b int) (lo, hi int, panel []uint8) {
	return cb.Starts[b], cb.Starts[b+1], cb.Panels[b]
}

// Width returns the number of features in block b.
func (cb *ColumnBlocks) Width(b int) int { return cb.Starts[b+1] - cb.Starts[b] }

// RowSlice returns the bin ids of row i within block b (width bytes,
// contiguous).
func (cb *ColumnBlocks) RowSlice(b, i int) []uint8 {
	w := cb.Width(b)
	return cb.Panels[b][i*w : (i+1)*w]
}

// NewColumnBlocks repacks a binned matrix into feature-block panels of the
// given width. width <= 0 or >= M produces a single block (plain row-major
// copy).
func NewColumnBlocks(bm *BinnedMatrix, width int) *ColumnBlocks {
	if width <= 0 || width > bm.M {
		width = bm.M
	}
	if width < 1 {
		width = 1
	}
	nb := (bm.M + width - 1) / width
	if nb == 0 { // zero-feature matrix: keep one empty block for uniformity
		nb = 1
	}
	cb := &ColumnBlocks{N: bm.N, M: bm.M, BlockWidth: width,
		Starts: make([]int, nb+1), Panels: make([][]uint8, nb)}
	for b := 0; b < nb; b++ {
		lo := b * width
		hi := lo + width
		if hi > bm.M {
			hi = bm.M
		}
		cb.Starts[b] = lo
		cb.Starts[b+1] = hi
		w := hi - lo
		panel := make([]uint8, bm.N*w)
		for i := 0; i < bm.N; i++ {
			copy(panel[i*w:(i+1)*w], bm.Bins[i*bm.M+lo:i*bm.M+hi])
		}
		cb.Panels[b] = panel
	}
	return cb
}
