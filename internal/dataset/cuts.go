package dataset

import (
	"fmt"
	"math"
	"slices"

	"harpgbdt/internal/sched"
)

// MissingBin is the reserved bin id for missing values. Real bins occupy
// [0, MaxBins) with MaxBins <= 255, so every bin id fits in one byte — the
// paper's 4x input-memory reduction (Sec. IV-E).
const MissingBin = uint8(255)

// MaxAllowedBins is the largest usable number of value bins (255 real bins
// plus the missing sentinel fills the byte).
const MaxAllowedBins = 255

// Cuts holds per-feature ascending cut points: exact quantiles of each
// feature's sorted distinct values. Bin k of feature f covers values v with
// cuts[k-1] < v <= cuts[k] (bin 0 covers v <= cuts[0]); values above the
// last cut clamp into the last bin.
type Cuts struct {
	M       int
	Ptr     []int32   // length M+1; cut points of feature f are Vals[Ptr[f]:Ptr[f+1]]
	Vals    []float32 // strictly increasing within each feature
	MaxBins int
}

// FeatureCuts returns the cut points of feature f (aliases internal
// storage).
func (c *Cuts) FeatureCuts(f int) []float32 {
	return c.Vals[c.Ptr[f]:c.Ptr[f+1]]
}

// NumBins returns the number of bins of feature f (at least 1 for any
// feature that had data; 1 for constant features).
func (c *Cuts) NumBins(f int) int {
	n := int(c.Ptr[f+1] - c.Ptr[f])
	if n == 0 {
		return 1
	}
	return n
}

// MaxNumBins returns the largest per-feature bin count.
func (c *Cuts) MaxNumBins() int {
	max := 1
	for f := 0; f < c.M; f++ {
		if n := c.NumBins(f); n > max {
			max = n
		}
	}
	return max
}

// BinValue maps a raw value of feature f to its bin id. NaN maps to
// MissingBin.
func (c *Cuts) BinValue(f int, v float32) uint8 {
	if v != v { // NaN
		return MissingBin
	}
	cuts := c.Vals[c.Ptr[f]:c.Ptr[f+1]]
	if len(cuts) == 0 {
		return 0
	}
	// First cut >= v; values above the last cut clamp to the last bin.
	lo, hi := 0, len(cuts)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cuts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint8(lo)
}

// UpperBound returns the raw-value upper bound of bin b for feature f, i.e.
// the split threshold "go left iff value <= UpperBound(f, b)".
func (c *Cuts) UpperBound(f int, b uint8) float32 {
	cuts := c.FeatureCuts(f)
	if len(cuts) == 0 {
		return float32(math.Inf(1))
	}
	if int(b) >= len(cuts) {
		return cuts[len(cuts)-1]
	}
	return cuts[b]
}

// Validate checks structural consistency: monotone pointers spanning Vals,
// no NaN cut, and strictly increasing cut values per feature. ±Inf cuts
// are legal (dense input may hold them).
func (c *Cuts) Validate() error {
	if len(c.Ptr) != c.M+1 {
		return fmt.Errorf("dataset: cuts ptr length %d != M+1=%d", len(c.Ptr), c.M+1)
	}
	if c.Ptr[0] != 0 || int(c.Ptr[c.M]) != len(c.Vals) {
		return fmt.Errorf("dataset: cuts ptr spans [%d, %d), want [0, %d)", c.Ptr[0], c.Ptr[c.M], len(c.Vals))
	}
	for f := 0; f < c.M; f++ {
		if c.Ptr[f] > c.Ptr[f+1] {
			return fmt.Errorf("dataset: cuts ptr not monotone at feature %d", f)
		}
		cuts := c.FeatureCuts(f)
		for k, v := range cuts {
			if v != v {
				return fmt.Errorf("dataset: NaN cut at feature %d index %d", f, k)
			}
			if k > 0 && !(cuts[k-1] < v) {
				return fmt.Errorf("dataset: cuts not strictly increasing at feature %d index %d", f, k)
			}
		}
		if n := c.NumBins(f); n > c.MaxBins {
			return fmt.Errorf("dataset: feature %d has %d bins > max %d", f, n, c.MaxBins)
		}
	}
	return nil
}

// BuildCuts computes per-feature quantile cut points from a dense matrix.
// maxBins caps the number of bins per feature (clamped to MaxAllowedBins;
// values <= 1 default to 255). Missing values (NaN) are ignored.
//
// This is the "histogram initialization" step the paper inherits from the
// XGBoost code base: an exact quantile computation over the (possibly
// deduplicated) sorted values of each feature.
func BuildCuts(d *Dense, maxBins int) *Cuts {
	return buildCuts(d.M, maxBins, func(f int, col []float32) []float32 {
		for i := f; i < len(d.Values); i += d.M {
			if v := d.Values[i]; v == v {
				col = append(col, v)
			}
		}
		return col
	})
}

// BuildCutsCSR computes cut points from a CSR matrix. Absent entries and
// explicit NaNs are treated as missing, matching the engines'
// default-direction handling: the cuts equal those of s.ToDense().
func BuildCutsCSR(s *CSR, maxBins int) *Cuts {
	// Bucket values per feature.
	counts := make([]int, s.M)
	for _, col := range s.Cols {
		counts[col]++
	}
	offs := make([]int, s.M+1)
	for f := 0; f < s.M; f++ {
		offs[f+1] = offs[f] + counts[f]
	}
	byFeat := make([]float32, len(s.Vals))
	fill := make([]int, s.M)
	copy(fill, offs[:s.M])
	for k, col := range s.Cols {
		byFeat[fill[col]] = s.Vals[k]
		fill[col]++
	}
	return buildCuts(s.M, maxBins, func(f int, col []float32) []float32 {
		for _, v := range byFeat[offs[f]:offs[f+1]] {
			if v == v {
				col = append(col, v)
			}
		}
		return col
	})
}

// buildCuts is the one cut driver behind BuildCuts and BuildCutsCSR.
// gather appends the non-NaN values of feature f to col and returns it.
// Features run in parallel over GOMAXPROCS workers, each reusing one
// column scratch (workers x rows floats, not a copy of the matrix); the
// cuts are assembled in feature order, so they do not depend on the width.
func buildCuts(m, maxBins int, gather func(f int, col []float32) []float32) *Cuts {
	if maxBins <= 1 || maxBins > MaxAllowedBins {
		maxBins = MaxAllowedBins
	}
	pool := sched.NewPool(0)
	scratch := make([][]float32, pool.Workers())
	perFeature := make([][]float32, m)
	pool.ParallelFor(m, 1, func(lo, hi, w int) {
		for f := lo; f < hi; f++ {
			scratch[w] = gather(f, scratch[w][:0])
			perFeature[f] = quantileCuts(scratch[w], maxBins)
		}
	})
	c := &Cuts{M: m, Ptr: make([]int32, m+1), MaxBins: maxBins}
	for f, cuts := range perFeature {
		c.Vals = append(c.Vals, cuts...)
		c.Ptr[f+1] = int32(len(c.Vals))
	}
	return c
}

// quantileCuts sorts vals in place and returns at most maxBins strictly
// increasing cut points such that each bin receives roughly equal mass.
// A constant feature yields a single cut (one bin). An empty slice yields
// nil (no data: every value at prediction time clamps to bin 0).
//
// The dedup keeps whichever of the equal-comparing -0 and +0 the sort put
// first, so the sort's permutation is in the cut bits: slices.Sort makes
// the same one as the sort.Slice reference in equivalence_test.go (one
// pdqsort template); a sort that does not (a radix sort) changes cuts.
func quantileCuts(vals []float32, maxBins int) []float32 {
	if len(vals) == 0 {
		return nil
	}
	slices.Sort(vals)
	// Distinct values.
	distinct := vals[:0:len(vals)] // reuse storage; safe since sorted scan is forward
	prev := float32(math.Inf(-1))
	for _, v := range vals {
		if v != prev {
			distinct = append(distinct, v)
			prev = v
		}
	}
	if len(distinct) <= maxBins {
		out := make([]float32, len(distinct))
		copy(out, distinct)
		return out
	}
	// Pick maxBins quantile boundaries over the distinct values. Using
	// distinct values (not raw mass) keeps cuts strictly increasing.
	out := make([]float32, 0, maxBins)
	n := len(distinct)
	for k := 1; k <= maxBins; k++ {
		idx := k*n/maxBins - 1
		v := distinct[idx]
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
