package dataset_test

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/synth"
)

// The serial reference the parallel cut builder and binner must match bit
// for bit: one goroutine, and sort.Slice, whose order of -0 and +0 is in
// the stored cuts. A CSR matrix is referenced through its ToDense, which
// is what its cuts and bins must equal.

func refQuantileCuts(vals []float32, maxBins int) []float32 {
	if len(vals) == 0 {
		return nil
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	distinct := vals[:0:len(vals)]
	var prev float32
	for i, v := range vals {
		if i == 0 || v != prev {
			distinct = append(distinct, v)
			prev = v
		}
	}
	if len(distinct) <= maxBins {
		return append([]float32{}, distinct...)
	}
	out := make([]float32, 0, maxBins)
	for k := 1; k <= maxBins; k++ {
		if v := distinct[k*len(distinct)/maxBins-1]; len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func refBuildCuts(d *dataset.Dense, maxBins int) *dataset.Cuts {
	if maxBins <= 1 || maxBins > dataset.MaxAllowedBins {
		maxBins = dataset.MaxAllowedBins
	}
	c := &dataset.Cuts{M: d.M, Ptr: make([]int32, d.M+1), MaxBins: maxBins}
	for f := 0; f < d.M; f++ {
		var col []float32
		for i := 0; i < d.N; i++ {
			if v := d.At(i, f); v == v {
				col = append(col, v)
			}
		}
		c.Vals = append(c.Vals, refQuantileCuts(col, maxBins)...)
		c.Ptr[f+1] = int32(len(c.Vals))
	}
	return c
}

func refBinDense(d *dataset.Dense, c *dataset.Cuts) []uint8 {
	bins := make([]uint8, 0, d.N*d.M)
	for i := 0; i < d.N; i++ {
		for f, v := range d.Row(i) {
			bins = append(bins, c.BinValue(f, v))
		}
	}
	return bins
}

func randomDense(n, m int, seed uint64) *dataset.Dense {
	d := dataset.NewDense(n, m)
	s := seed
	for i := 0; i < n; i++ {
		for f := 0; f < m; f++ {
			s = s*6364136223846793005 + 1442695040888963407
			if s>>60 == 0 {
				d.SetMissing(i, f)
			} else {
				d.Set(i, f, float32(int16(s>>44))/128)
			}
		}
	}
	return d
}

// pick fills an n x m matrix with values drawn from pool by an LCG.
func pick(n, m int, seed uint64, pool ...float32) *dataset.Dense {
	d := dataset.NewDense(n, m)
	s := seed
	for i := range d.Values {
		s = s*6364136223846793005 + 1442695040888963407
		d.Values[i] = pool[(s>>33)%uint64(len(pool))]
	}
	return d
}

// toCSR drops every third cell and keeps explicit NaNs where d has them.
func toCSR(t *testing.T, d *dataset.Dense) *dataset.CSR {
	t.Helper()
	b := dataset.NewCSRBuilder(d.M)
	for i := 0; i < d.N; i++ {
		var cols []int32
		var vals []float32
		for f, v := range d.Row(i) {
			if (i+f)%3 != 0 {
				cols, vals = append(cols, int32(f)), append(vals, v)
			}
		}
		if err := b.AddRow(cols, vals); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// radixColumns builds n rows whose columns reach each branch of the
// set-up sort: only -0 and only +0 (one key, every pass skipped), keys
// spanning all four bytes, keys differing in the low byte only (the
// three upper passes skipped), one repeated value, a run longer than
// pdqsort's insertion-sort cutoff that mixes -0 and +0 (the comparison
// sort fallback), and a column with NaNs.
func radixColumns(n int) *dataset.Dense {
	negZero := float32(math.Copysign(0, -1))
	d := dataset.NewDense(n, 7)
	s := uint64(23)
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		r := uint32(s >> 32)
		anyBits := math.Float32frombits(r)
		if anyBits != anyBits {
			anyBits = float32(r >> 8)
		}
		d.Set(i, 0, negZero)
		d.Set(i, 1, 0)
		d.Set(i, 2, anyBits)
		d.Set(i, 3, math.Float32frombits(math.Float32bits(1.5)|r>>24))
		d.Set(i, 4, 3.25)
		d.Set(i, 5, []float32{negZero, 0, -1, 1}[r%4])
		if r%5 == 0 {
			d.SetMissing(i, 6)
		} else {
			d.Set(i, 6, float32(int32(r))/1e6)
		}
	}
	return d
}

type initCase struct {
	name    string
	dense   *dataset.Dense
	csr     *dataset.CSR // when set, dense is its ToDense
	maxBins int
}

func initCases(t *testing.T) []initCase {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	constant := pick(300, 4, 1, 3, nan) // columns 0 and 3: one value among NaNs
	for i := 0; i < constant.N; i++ {
		constant.Set(i, 1, nan) // all missing
		constant.Set(i, 2, 7)   // one value, none missing
	}
	cases := []initCase{
		{name: "random-nan", dense: randomDense(3000, 7, 5), maxBins: 64},
		{name: "random-nan-255", dense: randomDense(3000, 7, 5), maxBins: 255},
		{name: "constant-and-all-nan", dense: constant, maxBins: 16},
		{name: "inf", dense: pick(500, 3, 2, -inf, inf, -1, 0, 1, nan), maxBins: 4},
		{name: "distinct-below-max", dense: pick(400, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), maxBins: 16},
		{name: "distinct-above-max", dense: pick(400, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), maxBins: 4},
		{name: "empty", dense: dataset.NewDense(0, 3), maxBins: 8},
		{name: "rows-fewer-than-workers", dense: randomDense(3, 5, 9), maxBins: 8},
	}
	// Signed zeros: which of -0/+0 the sort puts first is the stored cut.
	// Lengths straddle pdqsort's insertion-sort cutoff and its pattern
	// breaking; with maxBins 4 the third pool is thinned and keeps its zero.
	for k, n := range []int{5, 12, 13, 50, 700, 5000} {
		for p, pool := range [][]float32{
			{negZero, 0},
			{negZero, 0, 0, 0, 1},
			{negZero, negZero, negZero, 0, -2, -1, 1, 2},
		} {
			cases = append(cases, initCase{name: fmt.Sprintf("signed-zero-%d-pool%d", n, p),
				dense: pick(n, 40, uint64(k), pool...), maxBins: 4})
		}
	}
	csr := toCSR(t, randomDense(2000, 9, 17))
	cases = append(cases, initCase{name: "csr", dense: csr.ToDense(), csr: csr, maxBins: 32})
	// One column per branch of the set-up sort, dense and through CSR.
	radix := radixColumns(600)
	radixCSR := toCSR(t, radix)
	for _, maxBins := range []int{16, 255} {
		cases = append(cases,
			initCase{name: fmt.Sprintf("radix-%d", maxBins), dense: radix, maxBins: maxBins},
			initCase{name: fmt.Sprintf("radix-csr-%d", maxBins), dense: radixCSR.ToDense(), csr: radixCSR, maxBins: maxBins})
	}
	for _, w := range []struct {
		name string
		spec synth.Spec
		rows int
	}{
		{"train-thin", synth.HiggsLike, 4000},
		{"train-fat", synth.YFCCLike, 300},
		{"predict-batch", synth.HiggsLike, 1000},
		{"serve-online", synth.HiggsLike, 500},
	} {
		d, _, err := synth.Generate(synth.Config{Spec: w.spec, Rows: w.rows, Seed: 2019})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, initCase{name: w.name, dense: d, maxBins: 256})
	}
	return cases
}

// forEachWidth runs body under GOMAXPROCS 1, 2 and 4.
func forEachWidth(body func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		body(procs)
	}
}

func TestBuildCutsParallelMatchesSerial(t *testing.T) {
	cases := initCases(t)
	forEachWidth(func(procs int) {
		for _, tc := range cases {
			want := refBuildCuts(tc.dense, tc.maxBins)
			var built *dataset.Cuts
			if tc.csr != nil {
				built = dataset.BuildCutsCSR(tc.csr, tc.maxBins)
			} else {
				built = dataset.BuildCuts(tc.dense, tc.maxBins)
			}
			for _, e := range []struct {
				entry string
				got   *dataset.Cuts
			}{{"BuildCuts", built}, {"From", from(t, tc).Cuts}} {
				name, got := fmt.Sprintf("%s %s procs=%d", tc.name, e.entry, procs), e.got
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.M != want.M || got.MaxBins != want.MaxBins || len(got.Vals) != len(want.Vals) {
					t.Fatalf("%s: M/MaxBins/cuts %d/%d/%d, want %d/%d/%d", name,
						got.M, got.MaxBins, len(got.Vals), want.M, want.MaxBins, len(want.Vals))
				}
				for f := range want.Ptr {
					if got.Ptr[f] != want.Ptr[f] {
						t.Fatalf("%s: ptr[%d] = %d, want %d", name, f, got.Ptr[f], want.Ptr[f])
					}
				}
				for k := range want.Vals {
					if math.Float32bits(got.Vals[k]) != math.Float32bits(want.Vals[k]) {
						t.Fatalf("%s: cut %d = %v (%#x), want %v (%#x)", name, k,
							got.Vals[k], math.Float32bits(got.Vals[k]), want.Vals[k], math.Float32bits(want.Vals[k]))
					}
				}
			}
		}
	})
}

func TestBinDenseParallelMatchesSerial(t *testing.T) {
	cases := initCases(t)
	forEachWidth(func(procs int) {
		for _, tc := range cases {
			cuts := refBuildCuts(tc.dense, tc.maxBins)
			want := refBinDense(tc.dense, cuts)
			var binned *dataset.BinnedMatrix
			if tc.csr != nil {
				binned = dataset.BinCSR(tc.csr, cuts)
			} else {
				binned = dataset.BinDense(tc.dense, cuts)
			}
			// From's cuts equal the reference's (TestBuildCutsParallelMatchesSerial),
			// so its bins must equal the same reference bins.
			for _, e := range []struct {
				entry string
				got   *dataset.BinnedMatrix
			}{{"BinDense", binned}, {"From", from(t, tc).Binned}} {
				name, got := fmt.Sprintf("%s %s procs=%d", tc.name, e.entry, procs), e.got
				if got.N != tc.dense.N || got.M != tc.dense.M || len(got.Bins) != len(want) {
					t.Fatalf("%s: %dx%d with %d bins, want %dx%d with %d", name,
						got.N, got.M, len(got.Bins), tc.dense.N, tc.dense.M, len(want))
				}
				for i := range want {
					if got.Bins[i] != want[i] {
						t.Fatalf("%s: bin %d = %d, want %d", name, i, got.Bins[i], want[i])
					}
				}
			}
		}
	})
}

// from builds the case's Dataset with FromDense, or FromCSR for a CSR case:
// the entry points that sort once for both the cuts and the bins.
func from(t *testing.T, tc initCase) *dataset.Dataset {
	t.Helper()
	var ds *dataset.Dataset
	var err error
	if tc.csr != nil {
		ds, err = dataset.FromCSR(tc.name, tc.csr, make([]float32, tc.csr.N), tc.maxBins)
	} else {
		ds, err = dataset.FromDense(tc.name, tc.dense, make([]float32, tc.dense.N), tc.maxBins)
	}
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	return ds
}
