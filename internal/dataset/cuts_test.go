package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func denseFrom(rows [][]float32) *Dense {
	n := len(rows)
	m := 0
	if n > 0 {
		m = len(rows[0])
	}
	d := NewDense(n, m)
	for i, r := range rows {
		copy(d.Row(i), r)
	}
	return d
}

func TestBuildCutsSimple(t *testing.T) {
	d := denseFrom([][]float32{{1, 10}, {2, 10}, {3, 10}, {4, 10}})
	c := BuildCuts(d, 16)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.NumBins(0); got != 4 {
		t.Fatalf("feature 0 bins = %d, want 4", got)
	}
	if got := c.NumBins(1); got != 1 {
		t.Fatalf("constant feature bins = %d, want 1", got)
	}
}

func TestBinValueMonotone(t *testing.T) {
	d := NewDense(100, 1)
	for i := 0; i < 100; i++ {
		d.Set(i, 0, float32(i))
	}
	c := BuildCuts(d, 10)
	prev := uint8(0)
	for i := 0; i < 100; i++ {
		b := c.BinValue(0, float32(i))
		if b < prev {
			t.Fatalf("binning not monotone at %d: %d < %d", i, b, prev)
		}
		prev = b
	}
}

func TestBinValueRoundTripsTrainingValues(t *testing.T) {
	// Every training value must land in a bin whose upper bound is >= it,
	// and the previous bin's upper bound must be < it.
	d := NewDense(64, 2)
	for i := 0; i < 64; i++ {
		d.Set(i, 0, float32(i%17)*0.5)
		d.Set(i, 1, float32(i*i%31))
	}
	c := BuildCuts(d, 8)
	for i := 0; i < 64; i++ {
		for f := 0; f < 2; f++ {
			v := d.At(i, f)
			b := c.BinValue(f, v)
			if b == MissingBin {
				t.Fatalf("non-missing value binned as missing")
			}
			if ub := c.UpperBound(f, b); v > ub {
				t.Fatalf("value %v above its bin %d upper bound %v", v, b, ub)
			}
			if b > 0 {
				if lb := c.UpperBound(f, b-1); v <= lb {
					t.Fatalf("value %v should be in an earlier bin (bin %d lower bound %v)", v, b, lb)
				}
			}
		}
	}
}

func TestBinValueMissing(t *testing.T) {
	d := denseFrom([][]float32{{1}, {2}})
	c := BuildCuts(d, 4)
	if b := c.BinValue(0, float32(math.NaN())); b != MissingBin {
		t.Fatalf("NaN binned to %d, want MissingBin", b)
	}
}

func TestBinValueClampsAboveRange(t *testing.T) {
	d := denseFrom([][]float32{{1}, {2}, {3}})
	c := BuildCuts(d, 4)
	hi := c.BinValue(0, 1e9)
	if int(hi) != c.NumBins(0)-1 {
		t.Fatalf("huge value binned to %d, want last bin %d", hi, c.NumBins(0)-1)
	}
	lo := c.BinValue(0, -1e9)
	if lo != 0 {
		t.Fatalf("tiny value binned to %d, want 0", lo)
	}
}

func TestBuildCutsRespectsMaxBins(t *testing.T) {
	d := NewDense(1000, 1)
	for i := 0; i < 1000; i++ {
		d.Set(i, 0, float32(i))
	}
	for _, mb := range []int{2, 7, 16, 255} {
		c := BuildCuts(d, mb)
		if got := c.NumBins(0); got > mb {
			t.Fatalf("maxBins=%d: got %d bins", mb, got)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildCutsIgnoresMissing(t *testing.T) {
	d := NewDense(4, 1)
	d.Set(0, 0, 1)
	d.SetMissing(1, 0)
	d.Set(2, 0, 2)
	d.SetMissing(3, 0)
	c := BuildCuts(d, 8)
	if got := c.NumBins(0); got != 2 {
		t.Fatalf("bins = %d, want 2", got)
	}
}

func TestBuildCutsAllMissingFeature(t *testing.T) {
	d := NewDense(3, 2)
	for i := 0; i < 3; i++ {
		d.SetMissing(i, 0)
		d.Set(i, 1, float32(i))
	}
	c := BuildCuts(d, 8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// All-missing feature has no cuts; non-missing values clamp to bin 0.
	if b := c.BinValue(0, 5); b != 0 {
		t.Fatalf("bin on cutless feature = %d, want 0", b)
	}
}

// -Inf is a value like any other: it gets its own bin, and a column of
// nothing else gets one cut.
func TestBuildCutsNegInfOwnBin(t *testing.T) {
	negInf := float32(math.Inf(-1))
	d := denseFrom([][]float32{{negInf, negInf}, {1, negInf}, {2, negInf}})
	ds, err := FromDense("neg-inf", d, make([]float32, 3), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for f, want := range [][]float32{{negInf, 1, 2}, {negInf}} {
		got := ds.Cuts.FeatureCuts(f)
		if len(got) != len(want) {
			t.Fatalf("feature %d cuts = %v, want %v", f, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("feature %d cuts = %v, want %v", f, got, want)
			}
		}
	}
	for i, want := range []uint8{0, 1, 2} {
		if got := ds.Binned.At(i, 0); got != want {
			t.Fatalf("row %d bin = %d, want %d", i, got, want)
		}
	}
}

func TestQuantileCutsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, mbRaw uint8) bool {
		n := int(nRaw%500) + 1
		maxBins := int(mbRaw%100) + 2
		vals := make([]float32, n)
		s := uint64(seed)
		for i := range vals {
			s = s*6364136223846793005 + 1442695040888963407
			vals[i] = float32(int16(s>>48)) / 64
		}
		cuts := quantileCuts(sortedRun(vals), maxBins)
		if len(cuts) > maxBins {
			return false
		}
		// Strictly increasing.
		for k := 1; k < len(cuts); k++ {
			if !(cuts[k-1] < cuts[k]) {
				return false
			}
		}
		// Last cut covers the max value.
		maxV := vals[0]
		for _, v := range vals {
			if v > maxV {
				maxV = v
			}
		}
		return len(cuts) > 0 && cuts[len(cuts)-1] == maxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sortedRun gathers vals as one feature's set-up run and sorts it.
func sortedRun(vals []float32) []uint64 {
	c := column{tmp: make([]uint64, len(vals))}
	for i, v := range vals {
		c.run = append(c.run, uint64(sortKey(v))<<32|uint64(i))
	}
	c.sort()
	return c.run
}

func TestQuantileCutsEmpty(t *testing.T) {
	if got := quantileCuts(nil, 10); got != nil {
		t.Fatalf("empty input should yield nil cuts, got %v", got)
	}
}

func TestBuildCutsCSRMatchesDense(t *testing.T) {
	// A fully dense CSR must produce the same cuts as the equivalent dense
	// matrix.
	b := NewCSRBuilder(2)
	rows := [][]float32{{1, 5}, {2, 6}, {3, 7}, {4, 8}}
	for _, r := range rows {
		if err := b.AddRow([]int32{0, 1}, r); err != nil {
			t.Fatal(err)
		}
	}
	csr := b.Build()
	cDense := BuildCuts(denseFrom(rows), 16)
	cCSR := BuildCutsCSR(csr, 16)
	for f := 0; f < 2; f++ {
		a, b := cDense.FeatureCuts(f), cCSR.FeatureCuts(f)
		if len(a) != len(b) {
			t.Fatalf("feature %d: %v vs %v", f, a, b)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("feature %d cut %d: %v vs %v", f, k, a[k], b[k])
			}
		}
	}
}

func TestBuildCutsCSRExplicitNaNIsMissing(t *testing.T) {
	// A stored NaN is missing, as in the dense path: the CSR must cut and
	// bin exactly like its ToDense.
	b := NewCSRBuilder(2)
	for i := 0; i < 40; i++ {
		v := float32(i % 7)
		if i%5 == 0 {
			v = float32(math.NaN())
		}
		if err := b.AddRow([]int32{0, 1}, []float32{v, float32(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	csr := b.Build()
	want := BuildCuts(csr.ToDense(), 4)
	got := BuildCutsCSR(csr, 4)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Vals) != len(want.Vals) || got.Ptr[1] != want.Ptr[1] {
		t.Fatalf("CSR cuts %v (ptr %v), want %v (ptr %v)", got.Vals, got.Ptr, want.Vals, want.Ptr)
	}
	for k := range want.Vals {
		if math.Float32bits(got.Vals[k]) != math.Float32bits(want.Vals[k]) {
			t.Fatalf("CSR cuts %v, want %v", got.Vals, want.Vals)
		}
	}
	gotBins, wantBins := BinCSR(csr, got).Bins, BinDense(csr.ToDense(), want).Bins
	for i := range wantBins {
		if gotBins[i] != wantBins[i] {
			t.Fatalf("bin %d = %d, want %d", i, gotBins[i], wantBins[i])
		}
	}
}

func TestCutsValidateCatchesCorruption(t *testing.T) {
	d := denseFrom([][]float32{{1, 1}, {2, 2}, {3, 3}})
	c := BuildCuts(d, 8)
	c.Vals[1] = c.Vals[0] // break strict monotonicity
	if err := c.Validate(); err == nil {
		t.Fatal("corrupted cuts passed validation")
	}
}
