package invariant_test

import (
	"math"
	"strings"
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/histogram"
	"harpgbdt/internal/invariant"
	"harpgbdt/internal/tree"
)

// capture runs fn with a recording fail handler installed and returns the
// violation messages it produced. With the harpdebug tag off, every check
// is a no-op, so fn must produce none.
func capture(t *testing.T, fn func()) []string {
	t.Helper()
	var msgs []string
	prev := invariant.SetFailHandler(func(msg string) { msgs = append(msgs, msg) })
	defer invariant.SetFailHandler(prev)
	fn()
	return msgs
}

// expect asserts that violations fire exactly when the harpdebug tag is
// compiled in: the same corruption must fail under the tag and pass
// without it.
func expect(t *testing.T, msgs []string, substr string) {
	t.Helper()
	if invariant.Enabled {
		if len(msgs) == 0 {
			t.Fatalf("harpdebug build: corruption not detected (want message containing %q)", substr)
		}
		if !strings.Contains(msgs[0], substr) {
			t.Fatalf("violation %q does not mention %q", msgs[0], substr)
		}
		return
	}
	if len(msgs) != 0 {
		t.Fatalf("release build: invariant checks must be no-ops, got %q", msgs)
	}
}

func testLayout(t *testing.T) *histogram.Layout {
	t.Helper()
	d := dataset.NewDense(4, 2)
	for i := 0; i < 4; i++ {
		d.Set(i, 0, float32(i))
		d.Set(i, 1, float32(i/2))
	}
	return histogram.NewLayout(dataset.BuildCuts(d, 4))
}

func TestSplitConservationDetectsCorruption(t *testing.T) {
	parent := gh.Pair{G: 3, H: 6}
	left := gh.Pair{G: 1, H: 2}
	right := gh.Pair{G: 2, H: 4}
	if msgs := capture(t, func() { invariant.SplitConservation(parent, left, right, "ok") }); len(msgs) != 0 {
		t.Fatalf("conserved split flagged: %q", msgs)
	}
	right.G += 0.5
	expect(t, capture(t, func() { invariant.SplitConservation(parent, left, right, "bad") }),
		"split sums not conserved")
}

func TestHistConservationDetectsCorruption(t *testing.T) {
	l := testLayout(t)
	parent, left, right := histogram.NewHist(l), histogram.NewHist(l), histogram.NewHist(l)
	for i := range parent.Data {
		left.Data[i] = gh.Pair{G: float64(i), H: 1}
		right.Data[i] = gh.Pair{G: 2 * float64(i), H: 2}
		parent.Data[i] = gh.Pair{G: 3 * float64(i), H: 3}
	}
	if msgs := capture(t, func() { invariant.HistConservation(parent, left, right, "ok") }); len(msgs) != 0 {
		t.Fatalf("conserved histogram flagged: %q", msgs)
	}
	left.Data[1].H += 1 // corrupt one GHSum cell
	expect(t, capture(t, func() { invariant.HistConservation(parent, left, right, "bad") }),
		"not conserved")
	// A cell of a recycled histogram that its filler never zeroed: the
	// pool's poison must not compare as conserved.
	left.Data[1].H = math.NaN()
	expect(t, capture(t, func() { invariant.HistConservation(parent, left, right, "bad") }),
		"not conserved")
}

func TestHistFeatureTotalsDetectsExcessMass(t *testing.T) {
	l := testLayout(t)
	h := histogram.NewHist(l)
	// Three rows: feature 0 has them all in real bins, feature 1 has one
	// of them missing.
	node := gh.Pair{G: 3, H: 6}
	h.Data[l.Index(0, 0)] = gh.Pair{G: 1, H: 2}
	h.Data[l.Index(0, 1)] = gh.Pair{G: 2, H: 4}
	h.Data[l.Index(1, 0)] = gh.Pair{G: 2.5, H: 5}
	h.Data[l.Index(1, dataset.MissingBin)] = gh.Pair{G: 0.5, H: 1}
	if msgs := capture(t, func() { invariant.HistFeatureTotals(h, node, "ok") }); len(msgs) != 0 {
		t.Fatalf("consistent totals flagged: %q", msgs)
	}
	// Excess mass in a real bin.
	expect(t, capture(t, func() { invariant.HistFeatureTotals(h, gh.Pair{G: 3, H: 5}, "bad") }),
		"not the node total")
	// A row dropped from the missing cell: the feature now sums to less
	// than the node, which the old "must not exceed" check let through.
	h.Data[l.Index(1, dataset.MissingBin)] = gh.Pair{}
	expect(t, capture(t, func() { invariant.HistFeatureTotals(h, node, "bad") }),
		"feature 1 bins + missing cell")
}

func TestHistCellSetDetectsStrayCell(t *testing.T) {
	l := testLayout(t)
	h := histogram.NewHist(l)
	h.Data[l.Index(0, 0)] = gh.Pair{G: 1, H: 2}
	h.Trim(0, l.M) // the set is now exactly cell (0, 0)
	if msgs := capture(t, func() { invariant.HistCellSet(h, 0, l.M, "ok") }); len(msgs) != 0 {
		t.Fatalf("histogram inside its cell set flagged: %q", msgs)
	}
	// A write behind the set's back: the next clear would not remove it.
	h.Data[l.Index(1, dataset.MissingBin)] = gh.Pair{G: 0.5, H: 1}
	expect(t, capture(t, func() { invariant.HistCellSet(h, 0, l.M, "bad") }),
		"outside the histogram's cell set")
}

// partitionTest is the split "bin <= 1 goes left, missing goes right" over
// a one-feature column in which rows 0 and 2 pass.
func partitionTest() engine.SplitTest {
	col := []uint8{0, 3, 1, dataset.MissingBin}
	return engine.NewSplitTest(col, 1, tree.SplitInfo{Feature: 0, Bin: 1})
}

func TestPartitionPermutationDetectsLostRow(t *testing.T) {
	parent := []int32{0, 1, 2, 3}
	left := engine.RowSet{Rows: []int32{0, 2}}
	right := engine.RowSet{Rows: []int32{1, 3}}
	if msgs := capture(t, func() { invariant.PartitionPermutation(parent, left, right, partitionTest(), "ok") }); len(msgs) != 0 {
		t.Fatalf("valid partition flagged: %q", msgs)
	}
	// Duplicate a row (and drop another): same lengths, corrupt contents.
	bad := engine.RowSet{Rows: []int32{1, 1}}
	expect(t, capture(t, func() { invariant.PartitionPermutation(parent, left, bad, partitionTest(), "bad") }),
		"not in parent (or duplicated)")
}

func TestPartitionPermutationDetectsCountMismatch(t *testing.T) {
	parent := []int32{0, 1, 2}
	left := engine.RowSet{Rows: []int32{0}}
	right := engine.RowSet{Rows: []int32{1}}
	expect(t, capture(t, func() { invariant.PartitionPermutation(parent, left, right, partitionTest(), "bad") }),
		"row count")
}

func TestPartitionPermutationDetectsWrongSide(t *testing.T) {
	parent := []int32{0, 1, 2, 3}
	// A permutation, but row 2 passes the test and sits on the right.
	left := engine.RowSet{Rows: []int32{0}}
	right := engine.RowSet{Rows: []int32{1, 2, 3}}
	expect(t, capture(t, func() { invariant.PartitionPermutation(parent, left, right, partitionTest(), "bad") }),
		"wrong side of the split")
}

func TestPartitionPermutationDetectsReordering(t *testing.T) {
	parent := []int32{0, 1, 2, 3}
	// Every row on its side, but the right child lost the parent's order.
	left := engine.RowSet{Rows: []int32{0, 2}}
	right := engine.RowSet{Mem: gh.BuildMemBuf([]int32{3, 1}, gh.NewBuffer(4))}
	expect(t, capture(t, func() { invariant.PartitionPermutation(parent, left, right, partitionTest(), "bad") }),
		"not strictly ascending")
}

func TestRowIDsSnapshotsOnlyUnderHarpdebug(t *testing.T) {
	ids := invariant.RowIDs(engine.RowSet{Rows: []int32{4, 7}})
	if invariant.Enabled != (len(ids) == 2) {
		t.Fatalf("harpdebug=%v but the snapshot is %v", invariant.Enabled, ids)
	}
}

func TestPanelBinsDetectsOutOfRangeBin(t *testing.T) {
	l := testLayout(t)
	// Panel for the single block covering both features, 3 rows.
	w := l.M
	panel := make([]uint8, 3*w)
	panel[0], panel[1] = 1, 0
	panel[2], panel[3] = 2, dataset.MissingBin
	panel[4], panel[5] = 0, 1
	rs := engine.RowSet{Rows: []int32{0, 1, 2}}
	if msgs := capture(t, func() { invariant.PanelBins(panel, w, 0, rs, 0, 3, l, "ok") }); len(msgs) != 0 {
		t.Fatalf("in-range panel flagged: %q", msgs)
	}
	panel[5] = uint8(l.NBins(1)) // one past the last bin of feature 1
	expect(t, capture(t, func() { invariant.PanelBins(panel, w, 0, rs, 0, 3, l, "bad") }),
		"out of range")
}

func TestGainsMonotone(t *testing.T) {
	if msgs := capture(t, func() { invariant.GainsMonotone([]float64{5, 3, 3, 1}, "ok") }); len(msgs) != 0 {
		t.Fatalf("monotone gains flagged: %q", msgs)
	}
	expect(t, capture(t, func() { invariant.GainsMonotone([]float64{5, 3, 4}, "bad") }),
		"not gain-monotone")
}

func TestAssertf(t *testing.T) {
	msgs := capture(t, func() { invariant.Assertf(1 == 2, "math broke: %d", 42) })
	expect(t, msgs, "math broke: 42")
}
