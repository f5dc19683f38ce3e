package dataset

import (
	"cmp"
	"math"
	"slices"

	"harpgbdt/internal/sched"
)

// The set-up pass sorts each feature once. A feature's present cells form
// a run of entries, each the order-preserving key of the value in the high
// 32 bits and the row in the low 32 (rows < 2^32). The sorted run gives the
// feature's cuts and, merged against them, every row's bin.

// The keys of -0 and +0: adjacent, so a sort keeps -0's bits distinct.
const (
	negZeroKey = 1<<31 - 1
	posZeroKey = 1 << 31
)

// sortKey maps a non-NaN float32 to a uint32 with the same order, -0 one
// below +0: the magnitude bits of a non-negative value already order as
// integers, complementing them reverses the order of the negative ones,
// and the top bit lifts the non-negative half above.
func sortKey(v float32) uint32 {
	b := int32(math.Float32bits(v))
	return uint32(b&math.MaxInt32^b>>31) ^ 1<<31
}

// keyValue inverts sortKey on the key of entry e.
func keyValue(e uint64) float32 {
	s := int32(uint32(e>>32) ^ 1<<31)
	return math.Float32frombits(uint32(s ^ s>>31&math.MaxInt32))
}

// foldedKey is the key of entry e with -0 folded into +0: the order in
// which the two compare equal, as floats do.
func foldedKey(e uint64) uint32 {
	if k := uint32(e >> 32); k != negZeroKey {
		return k
	}
	return posZeroKey
}

// source gathers the runs of one input matrix: gather appends the non-NaN
// cells of feature f to run in row order and returns it; no run is longer
// than maxRun.
type source struct {
	m, maxRun int
	gather    func(f int, run []uint64) []uint64
}

// denseSource gathers a dense matrix by column stride.
func denseSource(d *Dense) source {
	return source{m: d.M, maxRun: d.N, gather: func(f int, run []uint64) []uint64 {
		for i, row := f, uint64(0); i < len(d.Values); i, row = i+d.M, row+1 {
			if v := d.Values[i]; v == v {
				run = append(run, uint64(sortKey(v))<<32|row)
			}
		}
		return run
	}}
}

// csrSource buckets a CSR matrix's non-NaN entries by feature, in row
// order, and gathers a feature by copying its bucket.
func csrSource(s *CSR) source {
	offs := make([]int, s.M+1)
	for k, col := range s.Cols {
		if v := s.Vals[k]; v == v {
			offs[col+1]++
		}
	}
	maxRun := 0
	for f := 0; f < s.M; f++ {
		maxRun = max(maxRun, offs[f+1])
		offs[f+1] += offs[f]
	}
	byFeat := make([]uint64, offs[s.M])
	next := slices.Clone(offs[:s.M])
	for i := 0; i < s.N; i++ {
		cols, vals := s.Row(i)
		for k, col := range cols {
			if v := vals[k]; v == v {
				byFeat[next[col]] = uint64(sortKey(v))<<32 | uint64(i)
				next[col]++
			}
		}
	}
	return source{m: s.M, maxRun: maxRun, gather: func(f int, run []uint64) []uint64 {
		return append(run, byFeat[offs[f]:offs[f+1]]...)
	}}
}

// setup is the one set-up pass behind BuildCuts, BuildCutsCSR, BinDense,
// BinCSR, FromDense and FromCSR. Each feature is gathered, sorted once,
// and then, when c is nil, cut (maxBins as BuildCuts takes it), and, when
// b is non-nil, binned into b against its cuts; cells left out of the run
// stay MissingBin. Features run in parallel over GOMAXPROCS workers, each
// reusing one column scratch of 16 B per row; the cuts are assembled in
// feature order and every cell has one writer, so the output does not
// depend on the width. It returns the cuts used.
func setup(src source, maxBins int, c *Cuts, b *BinnedMatrix) *Cuts {
	var perFeature [][]float32
	if c == nil {
		if maxBins <= 1 || maxBins > MaxAllowedBins {
			maxBins = MaxAllowedBins
		}
		perFeature = make([][]float32, src.m)
	}
	if b != nil {
		for i := range b.Bins {
			b.Bins[i] = MissingBin
		}
	}
	pool := sched.NewPool(0)
	cols := make([]column, pool.Workers())
	pool.ParallelFor(src.m, 1, func(lo, hi, w int) {
		col := &cols[w]
		if col.tmp == nil {
			col.run, col.tmp = make([]uint64, 0, src.maxRun), make([]uint64, src.maxRun)
		}
		for f := lo; f < hi; f++ {
			col.run = src.gather(f, col.run[:0])
			col.sort()
			var cuts []float32
			if c != nil {
				cuts = c.FeatureCuts(f)
			} else {
				cuts = quantileCuts(col.run, maxBins)
				perFeature[f] = cuts
			}
			if b != nil {
				col.bin(b.Bins, b.M, f, cuts)
			}
		}
	})
	if c != nil {
		return c
	}
	c = &Cuts{M: src.m, Ptr: make([]int32, src.m+1), MaxBins: maxBins}
	for f, cuts := range perFeature {
		c.Vals = append(c.Vals, cuts...)
		c.Ptr[f+1] = int32(len(c.Vals))
	}
	return c
}

// column is one worker's scratch, reused across features: the run and
// the radix sort's second buffer.
type column struct {
	run, tmp []uint64
}

// sort orders the run by value: an LSD radix sort over the four key bytes
// that skips each pass whose byte every key shares. A run holding both -0
// and +0 is the exception. The cuts keep whichever of the two the sort
// puts first, and the cuts have always kept pdqsort's choice, so that run
// is sorted, in row order, by slices.SortFunc on the values: the pdqsort
// template of slices.Sort, with the same comparisons and the same swaps.
func (c *column) sort() {
	run := c.run
	if bothZeros(run) {
		slices.SortFunc(run, func(a, b uint64) int { return cmp.Compare(keyValue(a), keyValue(b)) })
		return
	}
	var count [4][256]int
	for _, e := range run {
		count[0][byte(e>>32)]++
		count[1][byte(e>>40)]++
		count[2][byte(e>>48)]++
		count[3][byte(e>>56)]++
	}
	src, dst := run, c.tmp[:len(run)]
	for p := range count {
		digits, shift := &count[p], 32+8*p
		if len(src) == 0 || digits[byte(src[0]>>shift)] == len(src) {
			continue
		}
		sum := 0
		for d, n := range digits {
			digits[d], sum = sum, sum+n
		}
		for _, e := range src {
			d := byte(e >> shift)
			dst[digits[d]] = e
			digits[d]++
		}
		src, dst = dst, src
	}
	c.run, c.tmp = src, dst
}

// bothZeros reports whether the run holds both -0 and +0.
func bothZeros(run []uint64) bool {
	var seen [2]bool // indexed by the key's top bit: -0, +0
	for _, e := range run {
		if k := uint32(e >> 32); k == negZeroKey || k == posZeroKey {
			seen[k>>31] = true
		}
	}
	return seen[0] && seen[1]
}

// quantileCuts returns at most maxBins strictly increasing cut points of
// a sorted run such that each bin receives roughly equal mass. A constant
// feature yields a single cut (one bin). An empty run yields nil (no data:
// every value at prediction time clamps to bin 0). Of equal-comparing -0
// and +0 the cut keeps the one the sort put first: for a run holding both,
// that is pdqsort's choice (the fallback in sort).
func quantileCuts(run []uint64, maxBins int) []float32 {
	if len(run) == 0 {
		return nil
	}
	distinct, prev := 1, foldedKey(run[0])
	for _, e := range run[1:] {
		if k := foldedKey(e); k != prev {
			distinct, prev = distinct+1, k
		}
	}
	// Pick quantile boundaries over the distinct values (every one of
	// them when they fit): using distinct values, not raw mass, keeps
	// the cuts strictly increasing.
	picks := min(distinct, maxBins)
	out := make([]float32, 0, picks)
	rank := 0
	for i, e := range run {
		k := foldedKey(e)
		if i > 0 && k == prev {
			continue
		}
		prev = k
		if rank == (len(out)+1)*distinct/picks-1 {
			if out = append(out, keyValue(e)); len(out) == picks {
				break
			}
		}
		rank++
	}
	return out
}

// bin writes the bin of every entry of the sorted run into column f of
// bins (m bins per row) by one forward merge against the feature's cuts:
// the first cut >= v, values above the last cut clamped into the last
// bin, exactly as BinValue. A cut's key is taken of cut+0, folding -0 into
// +0; no key lies between those of -0 and +0, so "cut < v" then holds for
// an entry of either zero exactly when it holds for a float.
func (c *column) bin(bins []uint8, m, f int, cuts []float32) {
	j, last := 0, len(cuts)-1
	var cut uint32
	if last >= 0 {
		cut = sortKey(cuts[0] + 0)
	}
	for _, e := range c.run {
		k := uint32(e >> 32)
		for j < last && cut < k {
			j++
			cut = sortKey(cuts[j] + 0)
		}
		bins[int(uint32(e))*m+f] = uint8(j)
	}
}
