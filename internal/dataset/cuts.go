package dataset

import (
	"fmt"
	"math"
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

// BinValue maps a raw value of feature f to its bin id: the first cut >= v,
// values above the last cut clamped into the last bin, NaN to MissingBin.
// It is the one-value definition of a bin. The set-up pass bins whole
// columns by a merge instead, and the tests check that merge against
// BinValue cell by cell.
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
	return setup(denseSource(d), maxBins, nil, nil)
}

// BuildCutsCSR computes cut points from a CSR matrix. Absent entries and
// explicit NaNs are treated as missing, matching the engines'
// default-direction handling: the cuts equal those of s.ToDense().
func BuildCutsCSR(s *CSR, maxBins int) *Cuts {
	return setup(csrSource(s), maxBins, nil, nil)
}
