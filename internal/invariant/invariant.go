// Package invariant is the sanitizer-style runtime assertion layer of the
// trainer: machine-checkable statements of the algebraic invariants the
// paper's concurrency structure relies on — GHSum conservation across the
// histogram subtraction trick and across a feature's bins plus its
// missing-value cell, row-partition permutation after ApplySplit,
// bin-id bounds inside block-confined BuildHist write regions, and TopK
// queue gain monotonicity.
//
// The checks are gated behind the `harpdebug` build tag (`go test -tags
// harpdebug ./...`, `make race-sanitize`). In release builds Enabled is the
// constant false: every check body is dead code and call sites guarded by
// `if invariant.Enabled` vanish, so the hot path pays nothing. A violation
// calls the fail handler, which panics by default; tests may install their
// own handler to observe failures.
package invariant

import (
	"fmt"
	"math"
	"sync/atomic"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/histogram"
)

// epsRel is the per-cell relative tolerance of the floating-point
// conservation checks. Histogram subtraction (sibling = parent − built)
// cancels sums accumulated in different orders, so exact equality is not
// available; 1e-6 is ~1000x the error observed on the synthetic datasets.
const epsRel = 1e-6

// failHandler receives violation messages. Default: panic.
var failHandler atomic.Pointer[func(string)]

// SetFailHandler replaces the violation handler (nil restores the default
// panic) and returns the previous one. Tests use this to observe failures
// without unwinding.
func SetFailHandler(h func(msg string)) (prev func(string)) {
	var p *func(string)
	if h != nil {
		p = &h
	}
	if old := failHandler.Swap(p); old != nil {
		prev = *old
	}
	return prev
}

// Failf reports an invariant violation. With no handler installed it
// panics, so a corrupted training run dies at the first inconsistent
// state instead of checkpointing garbage.
func Failf(format string, args ...any) {
	msg := "invariant: " + fmt.Sprintf(format, args...)
	if h := failHandler.Load(); h != nil {
		(*h)(msg)
		return
	}
	panic(msg)
}

// Assertf checks a single condition. No-op unless built with harpdebug.
func Assertf(cond bool, format string, args ...any) {
	if !Enabled || cond {
		return
	}
	Failf(format, args...)
}

func tol(scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return epsRel * scale
}

// SplitConservation checks that a split's child gradient totals add back
// up to the parent's: G_parent = G_left + G_right (and H likewise) within
// tolerance. This is the GHSum conservation law every split decision and
// the subtraction trick depend on.
func SplitConservation(parent, left, right gh.Pair, ctx string) {
	if !Enabled {
		return
	}
	dg := math.Abs(parent.G - left.G - right.G)
	dh := math.Abs(parent.H - left.H - right.H)
	if dg > tol(math.Abs(parent.G)) || dh > tol(math.Abs(parent.H)) {
		Failf("%s: split sums not conserved: parent=%+v left=%+v right=%+v (dG=%g dH=%g)",
			ctx, parent, left, right, dg, dh)
	}
}

// HistConservation checks parent ≈ left + right cell-wise: the state the
// histogram subtraction trick assumes when it derives one sibling from the
// other. Histograms must share a layout. A NaN cell fails: under harpdebug
// that is what histogram.Pool leaves in a cell nobody zeroed.
func HistConservation(parent, left, right *histogram.Hist, ctx string) {
	if !Enabled {
		return
	}
	for i := range parent.Data {
		p, l, r := parent.Data[i], left.Data[i], right.Data[i]
		if !(math.Abs(p.G-l.G-r.G) <= tol(math.Abs(p.G))) || !(math.Abs(p.H-l.H-r.H) <= tol(math.Abs(p.H))) {
			Failf("%s: histogram cell %d not conserved: parent=%+v left=%+v right=%+v",
				ctx, i, p, l, r)
		}
	}
}

// HistFeatureTotals checks a freshly built node histogram against the
// node's gradient total. Every row of the node lands in exactly one cell
// of every feature — a real bin, or the missing-value cell — so for every
// feature the real bins plus the missing cell must add up to the node's
// ⟨G, H⟩ within tolerance.
func HistFeatureTotals(h *histogram.Hist, nodeSum gh.Pair, ctx string) {
	if !Enabled {
		return
	}
	for f := 0; f < h.Layout.M; f++ {
		s := h.FeatureSum(f)
		s.Add(h.Missing(f))
		// Negated comparisons: a NaN total must fail too.
		if !(math.Abs(s.G-nodeSum.G) <= tol(math.Abs(nodeSum.G))) || !(math.Abs(s.H-nodeSum.H) <= tol(math.Abs(nodeSum.H))) {
			Failf("%s: feature %d bins + missing cell = %+v, not the node total %+v", ctx, f, s, nodeSum)
		}
	}
}

// HistCellSet checks a histogram's cell-set invariant over features
// [fLo, fHi): every cell outside the set is +0. The passes that visit the
// set only — the block clear, the subtraction, the split listing — read
// nothing else, so a stray cell would survive a clear or a subtraction.
func HistCellSet(h *histogram.Hist, fLo, fHi int, ctx string) {
	if !Enabled {
		return
	}
	if f, bin, bad := h.StrayCell(fLo, fHi); bad {
		Failf("%s: cell %d of feature %d holds %+v outside the histogram's cell set", ctx, bin, f, h.At(f, uint8(bin)))
	}
}

// RowIDs returns the row ids of rs in order: the snapshot of a parent's
// rows that PartitionPermutation compares against, taken before an in-place
// ApplySplit overwrites them. Nil unless built with harpdebug.
func RowIDs(rs engine.RowSet) []int32 {
	if !Enabled {
		return nil
	}
	ids := make([]int32, 0, rs.Len())
	rs.ForEachRow(func(r int32) { ids = append(ids, r) })
	return ids
}

// PartitionPermutation checks that ApplySplit partitioned a node exactly:
// left ++ right must be a multiset permutation of parent (the node's row
// ids before the partition) — no row lost, duplicated, or invented; every
// left row must pass the split test and every right row fail it; and both
// children must list their rows in strictly ascending order, which the
// root's order plus a stable partition guarantee at every depth.
func PartitionPermutation(parent []int32, left, right engine.RowSet, test engine.SplitTest, ctx string) {
	if !Enabled {
		return
	}
	if left.Len()+right.Len() != len(parent) {
		Failf("%s: partition row count %d+%d != parent %d", ctx, left.Len(), right.Len(), len(parent))
	}
	seen := make(map[int32]int, len(parent))
	for _, r := range parent {
		seen[r]++
	}
	for side, rs := range [2]engine.RowSet{left, right} {
		wantLeft, prev := side == 0, int32(-1)
		rs.ForEachRow(func(r int32) {
			if seen[r] == 0 {
				Failf("%s: partition emitted row %d not in parent (or duplicated)", ctx, r)
				return
			}
			seen[r]--
			if test.GoLeft(r) != wantLeft {
				Failf("%s: row %d is on the wrong side of the split (left=%v)", ctx, r, wantLeft)
			}
			if r <= prev {
				Failf("%s: child rows not strictly ascending: %d after %d", ctx, r, prev)
			}
			prev = r
		})
	}
}

// PanelBins checks the block-confined BuildHist write region: every bin id
// the kernel is about to accumulate for rows [lo, hi) of rs, read from the
// feature-block panel covering features [fLo, fLo+width), must be either
// the missing sentinel or inside its feature's bin range. An out-of-range
// bin would scribble a neighboring feature's GHSum cells — exactly the
// corruption the paper's block-confined write regions exist to prevent.
func PanelBins(panel []uint8, width, fLo int, rs engine.RowSet, lo, hi int, layout *histogram.Layout, ctx string) {
	if !Enabled {
		return
	}
	checkRow := func(r int32) {
		bins := panel[int(r)*width : int(r)*width+width]
		for j, bin := range bins {
			if bin == dataset.MissingBin {
				continue
			}
			if int(bin) >= layout.NBins(fLo+j) {
				Failf("%s: row %d feature %d bin %d out of range (feature has %d bins)",
					ctx, r, fLo+j, bin, layout.NBins(fLo+j))
			}
		}
	}
	if rs.Mem != nil {
		for _, e := range rs.Mem[lo:hi] {
			checkRow(e.Row)
		}
		return
	}
	for _, r := range rs.Rows[lo:hi] {
		checkRow(r)
	}
}

// GainsMonotone checks that a TopK batch popped from a leafwise queue came
// out in non-increasing gain order — the heap discipline TopK node
// parallelism is built on.
func GainsMonotone(gains []float64, ctx string) {
	if !Enabled {
		return
	}
	for i := 1; i < len(gains); i++ {
		if gains[i] > gains[i-1] {
			Failf("%s: queue pops not gain-monotone: gain[%d]=%g > gain[%d]=%g",
				ctx, i, gains[i], i-1, gains[i-1])
		}
	}
}
