// Package dataset provides the input-side substrate for GBDT training:
// dense and sparse (CSR) value matrices, exact-quantile bin cuts
// ("histogram initialization", parallel over features and rows), the 1-byte
// binned matrix and its feature-block panel layout, dataset shape statistics
// (sparseness S and bin-dispersion CV from Table III of the paper), and
// loaders for libsvm and CSV formats plus a fast binary cache.
package dataset

import (
	"fmt"
	"math"
)

// Dense is a row-major N x M matrix of float32 feature values. Missing
// values are represented as NaN.
type Dense struct {
	N, M   int
	Values []float32
}

// NewDense allocates an N x M dense matrix with all values zero.
func NewDense(n, m int) *Dense {
	return &Dense{N: n, M: m, Values: make([]float32, n*m)}
}

// At returns the value at row i, feature f.
func (d *Dense) At(i, f int) float32 { return d.Values[i*d.M+f] }

// Set stores v at row i, feature f.
func (d *Dense) Set(i, f int, v float32) { d.Values[i*d.M+f] = v }

// SetMissing marks row i, feature f as missing.
func (d *Dense) SetMissing(i, f int) { d.Values[i*d.M+f] = float32(math.NaN()) }

// Row returns the backing slice of row i (length M). The slice aliases the
// matrix; callers must not grow it.
func (d *Dense) Row(i int) []float32 { return d.Values[i*d.M : (i+1)*d.M] }

// IsMissing reports whether the value at row i, feature f is missing.
func (d *Dense) IsMissing(i, f int) bool {
	v := d.Values[i*d.M+f]
	return v != v // NaN check without math import in hot path
}

// Validate checks structural consistency.
func (d *Dense) Validate() error {
	if d.N < 0 || d.M < 0 {
		return fmt.Errorf("dataset: negative dimensions %dx%d", d.N, d.M)
	}
	if len(d.Values) != d.N*d.M {
		return fmt.Errorf("dataset: values length %d != %d*%d", len(d.Values), d.N, d.M)
	}
	return nil
}

// CSR is a compressed sparse row matrix. Entries absent from a row are
// treated as missing (the GBDT engines send them in the split's default
// direction, matching XGBoost's sparsity-aware handling).
type CSR struct {
	N, M   int
	RowPtr []int64 // length N+1
	Cols   []int32
	Vals   []float32
}

// NewCSRBuilder returns a builder that assembles a CSR matrix row by row.
func NewCSRBuilder(m int) *CSRBuilder {
	return &CSRBuilder{m: m, rowPtr: []int64{0}}
}

// CSRBuilder accumulates rows for a CSR matrix.
type CSRBuilder struct {
	m      int
	rowPtr []int64
	cols   []int32
	vals   []float32
}

// AddRow appends a row given parallel column/value slices. Columns must be
// strictly increasing and within range.
func (b *CSRBuilder) AddRow(cols []int32, vals []float32) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("dataset: cols/vals length mismatch %d != %d", len(cols), len(vals))
	}
	prev := int32(-1)
	for _, c := range cols {
		if c <= prev {
			return fmt.Errorf("dataset: columns not strictly increasing at %d", c)
		}
		if int(c) >= b.m {
			return fmt.Errorf("dataset: column %d out of range (m=%d)", c, b.m)
		}
		prev = c
	}
	b.cols = append(b.cols, cols...)
	b.vals = append(b.vals, vals...)
	b.rowPtr = append(b.rowPtr, int64(len(b.cols)))
	return nil
}

// Build finalizes the CSR matrix.
func (b *CSRBuilder) Build() *CSR {
	return &CSR{
		N:      len(b.rowPtr) - 1,
		M:      b.m,
		RowPtr: b.rowPtr,
		Cols:   b.cols,
		Vals:   b.vals,
	}
}

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.Cols) }

// Row returns the column indices and values of row i. The slices alias the
// matrix.
func (c *CSR) Row(i int) ([]int32, []float32) {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	return c.Cols[lo:hi], c.Vals[lo:hi]
}

// ToDense materializes the CSR matrix as a dense matrix with NaN for absent
// entries.
func (c *CSR) ToDense() *Dense {
	d := NewDense(c.N, c.M)
	nan := float32(math.NaN())
	for i := range d.Values {
		d.Values[i] = nan
	}
	for i := 0; i < c.N; i++ {
		cols, vals := c.Row(i)
		row := d.Row(i)
		for k, col := range cols {
			row[col] = vals[k]
		}
	}
	return d
}

// Validate checks structural consistency.
func (c *CSR) Validate() error {
	if len(c.RowPtr) != c.N+1 {
		return fmt.Errorf("dataset: rowptr length %d != N+1=%d", len(c.RowPtr), c.N+1)
	}
	if len(c.Cols) != len(c.Vals) {
		return fmt.Errorf("dataset: cols/vals length mismatch")
	}
	if c.RowPtr[0] != 0 || c.RowPtr[c.N] != int64(len(c.Cols)) {
		return fmt.Errorf("dataset: rowptr endpoints invalid")
	}
	for i := 0; i < c.N; i++ {
		if c.RowPtr[i] > c.RowPtr[i+1] {
			return fmt.Errorf("dataset: rowptr not monotone at row %d", i)
		}
	}
	return nil
}
