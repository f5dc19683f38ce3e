package dataset

import (
	"fmt"
	"math"
)

// Dataset bundles everything the training engines need: labels, the binned
// input, the cuts that produced it, and cached shape statistics.
type Dataset struct {
	Name   string
	Labels []float32
	Binned *BinnedMatrix
	Cuts   *Cuts
}

// NumRows returns the number of training rows.
func (ds *Dataset) NumRows() int { return ds.Binned.N }

// NumFeatures returns the number of features.
func (ds *Dataset) NumFeatures() int { return ds.Binned.M }

// Validate checks cross-structure consistency.
func (ds *Dataset) Validate() error {
	if ds.Binned == nil || ds.Cuts == nil {
		return fmt.Errorf("dataset: missing binned matrix or cuts")
	}
	if len(ds.Labels) != ds.Binned.N {
		return fmt.Errorf("dataset: %d labels for %d rows", len(ds.Labels), ds.Binned.N)
	}
	if err := ds.Cuts.Validate(); err != nil {
		return err
	}
	return ds.Binned.Validate(ds.Cuts)
}

func errLabels(labels, rows int) error {
	return fmt.Errorf("dataset: %d labels for %d rows", labels, rows)
}

// FromDense builds a Dataset from a dense value matrix and labels, sorting
// each feature once for both its cuts and its bins.
func FromDense(name string, d *Dense, labels []float32, maxBins int) (*Dataset, error) {
	if len(labels) != d.N {
		return nil, errLabels(len(labels), d.N)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	b := &BinnedMatrix{N: d.N, M: d.M, Bins: make([]uint8, d.N*d.M)}
	return &Dataset{Name: name, Labels: labels, Binned: b, Cuts: setup(denseSource(d), maxBins, nil, b)}, nil
}

// FromCSR builds a Dataset from a sparse matrix and labels, sorting each
// feature once for both its cuts and its bins.
func FromCSR(name string, s *CSR, labels []float32, maxBins int) (*Dataset, error) {
	if len(labels) != s.N {
		return nil, fmt.Errorf("dataset: %d labels for %d rows", len(labels), s.N)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &BinnedMatrix{N: s.N, M: s.M, Bins: make([]uint8, s.N*s.M)}
	return &Dataset{Name: name, Labels: labels, Binned: b, Cuts: setup(csrSource(s), maxBins, nil, b)}, nil
}

// Stats are the shape statistics of Table III: S is the fraction of present
// (non-missing) entries; CV is the coefficient of variation (stdev/mean) of
// the per-feature used-bin counts, measuring how uneven the bin distribution
// is (high CV => workload imbalance across features).
type Stats struct {
	N, M    int
	S       float64
	CV      float64
	MaxBins int
	// BinsPerFeature is the number of distinct bins observed per feature.
	BinsPerFeature []int
}

// ComputeStats scans the dataset once and returns its shape statistics.
func ComputeStats(ds *Dataset) Stats {
	n, m := ds.NumRows(), ds.NumFeatures()
	st := Stats{N: n, M: m, BinsPerFeature: make([]int, m)}
	if n == 0 || m == 0 {
		return st
	}
	present := 0
	seen := make([]bool, 256)
	bm := ds.Binned
	for f := 0; f < m; f++ {
		for i := range seen {
			seen[i] = false
		}
		cnt := 0
		for i := 0; i < n; i++ {
			b := bm.Bins[i*m+f]
			if b == MissingBin {
				continue
			}
			present++
			if !seen[b] {
				seen[b] = true
				cnt++
			}
		}
		st.BinsPerFeature[f] = cnt
		if cnt > st.MaxBins {
			st.MaxBins = cnt
		}
	}
	st.S = float64(present) / float64(n*m)
	mean := 0.0
	for _, c := range st.BinsPerFeature {
		mean += float64(c)
	}
	mean /= float64(m)
	if mean > 0 {
		varsum := 0.0
		for _, c := range st.BinsPerFeature {
			d := float64(c) - mean
			varsum += d * d
		}
		st.CV = math.Sqrt(varsum/float64(m)) / mean
	}
	return st
}

// String formats the statistics as a Table III row.
func (s Stats) String() string {
	return fmt.Sprintf("N=%d M=%d S=%.2f CV=%.2f maxbins=%d", s.N, s.M, s.S, s.CV, s.MaxBins)
}
