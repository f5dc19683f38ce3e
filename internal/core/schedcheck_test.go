package core

import (
	"fmt"
	"math"
	"testing"

	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/tree"
)

// This file is the deterministic schedule model checker for the ASYNC
// worker loop. sched.Choreo serializes the workers at the yield points
// annotated in buildAsync ("loop", "claimed", "grafted", "publish",
// "exit") and a seeded pick function enumerates interleavings; for every
// explored schedule the checker asserts the invariants the paper's
// loosely-coupled mode rests on:
//
//   - schedule independence: the grown tree is equivalent (up to node
//     numbering) to a single-worker reference build — the TopK queue plus
//     the three-section locking discipline must make the result a pure
//     function of the data;
//   - GHSum conservation: every split partitions the parent's gradient
//     sums exactly onto its children (no lost or doubled rows across the
//     claim/graft/publish hand-offs);
//   - partition permutation: child row counts sum to the parent's count at
//     every node, and the leaf counts sum to N.
//
// The depth limit (not the leaf cap) bounds growth, so the final frontier
// is schedule-independent by construction and any divergence is a real
// synchronization bug, not a tie-break artifact.

// schedCheckConfig grows a depth-limited TopK tree: TreeSize 10 allows 512
// leaves so the leaf cap never binds, MaxDepth 5 bounds the tree at 32
// leaves, K=1 keeps the barrier-mode warm-up as short as possible so the
// ASYNC region does almost all the work.
func schedCheckConfig(workers int) Config {
	return Config{
		Mode:     Async,
		K:        1,
		Growth:   grow.Leafwise,
		TreeSize: 10,
		MaxDepth: 5,
		Params:   tree.DefaultSplitParams(),
		Workers:  workers,
	}
}

// splitmix64 is the pick-function RNG: pure, seedable, stateless.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildUnderSchedule runs one ASYNC build with the workers driven through
// the interleaving chosen by the seeded pick function, returning the tree
// and the schedule trace that identifies the interleaving.
func buildUnderSchedule(t *testing.T, workers int, seed uint64, grad gh.Buffer, b *Builder) (*tree.Tree, []int) {
	t.Helper()
	choreo := sched.NewChoreo(workers, func(step int, runnable []int) int {
		return int(splitmix64(seed^uint64(step)*0x2545f4914f6cdd1d) % uint64(len(runnable)))
	})
	asyncYield = func(worker int, point string) {
		if point == "exit" {
			choreo.Exit(worker)
			return
		}
		choreo.Yield(worker)
	}
	defer func() { asyncYield = nil }()
	bt, err := b.BuildTree(grad)
	if err != nil {
		t.Fatalf("seed %d: BuildTree: %v", seed, err)
	}
	if err := bt.Tree.Validate(); err != nil {
		t.Fatalf("seed %d: invalid tree: %v", seed, err)
	}
	return bt.Tree, choreo.Trace()
}

// checkConservation walks every internal node asserting GHSum and count
// conservation, and that leaf counts sum to n.
func checkConservation(t *testing.T, tr *tree.Tree, n int, seed uint64) {
	t.Helper()
	leafCount := int32(0)
	for id := range tr.Nodes {
		nd := &tr.Nodes[id]
		if nd.IsLeaf() {
			leafCount += nd.Count
			continue
		}
		l, r := &tr.Nodes[nd.Left], &tr.Nodes[nd.Right]
		if l.Count+r.Count != nd.Count {
			t.Fatalf("seed %d: node %d: child counts %d+%d != %d (partition permutation broken)",
				seed, id, l.Count, r.Count, nd.Count)
		}
		if dg := math.Abs(l.SumG + r.SumG - nd.SumG); dg > 1e-9 {
			t.Fatalf("seed %d: node %d: GHSum G conservation off by %g", seed, id, dg)
		}
		if dh := math.Abs(l.SumH + r.SumH - nd.SumH); dh > 1e-9 {
			t.Fatalf("seed %d: node %d: GHSum H conservation off by %g", seed, id, dh)
		}
	}
	if int(leafCount) != n {
		t.Fatalf("seed %d: leaf counts sum to %d, want %d rows", seed, leafCount, n)
	}
}

// TestAsyncScheduleChecker enumerates at least 100 distinct interleavings
// of the 3-worker ASYNC loop and requires every invariant to hold on each.
func TestAsyncScheduleChecker(t *testing.T) {
	const (
		workers      = 3
		rows         = 600
		features     = 6
		wantDistinct = 100
		seedCap      = 400
	)
	ds := testDataset(t, rows, features)
	grad := dyadicGradients(rows, 5)

	// Reference: the same configuration on a single worker (one actor, so
	// exactly one interleaving exists).
	refBuilder, err := NewBuilder(schedCheckConfig(1), ds)
	if err != nil {
		t.Fatal(err)
	}
	refBT, err := refBuilder.BuildTree(grad)
	if err != nil {
		t.Fatal(err)
	}
	ref := refBT.Tree
	checkConservation(t, ref, rows, 0)
	if ref.NumLeaves() < 8 {
		t.Fatalf("reference tree too small (%d leaves) to exercise the ASYNC region", ref.NumLeaves())
	}

	distinct := make(map[string]bool)
	builds := 0
	for seed := uint64(1); seed <= seedCap && len(distinct) < wantDistinct; seed++ {
		b, err := NewBuilder(schedCheckConfig(workers), ds)
		if err != nil {
			t.Fatal(err)
		}
		tr, trace := buildUnderSchedule(t, workers, seed, grad, b)
		builds++
		if len(trace) == 0 {
			t.Fatalf("seed %d: the ASYNC region never ran (no schedule points hit)", seed)
		}
		distinct[fmt.Sprint(trace)] = true

		if !treesEquivalent(ref, tr) {
			t.Fatalf("seed %d: tree differs from the single-worker reference; ASYNC result is schedule-dependent", seed)
		}
		checkConservation(t, tr, rows, seed)
	}
	if len(distinct) < wantDistinct {
		t.Fatalf("explored only %d distinct interleavings in %d builds, want >= %d",
			len(distinct), builds, wantDistinct)
	}
	t.Logf("schedule checker: %d distinct interleavings over %d builds, all invariants held", len(distinct), builds)

	// The virtual driver takes the same steps in discrete-event order:
	// two more schedules, held to the same invariants. (At 32 workers the
	// queue never fills the machine and the warm-up grows the whole tree.)
	for _, vw := range []int{3, 32} {
		cfg := schedCheckConfig(vw)
		cfg.Virtual = true
		tr := buildWith(t, cfg, ds, grad)
		if !treesEquivalent(ref, tr) {
			t.Fatalf("virtual %d workers: tree differs from the single-worker real reference", vw)
		}
		checkConservation(t, tr, rows, uint64(vw))
	}
}

// TestAsyncScheduleReplay pins determinism of the harness itself: the same
// seed must replay the same interleaving and grow the identical tree.
func TestAsyncScheduleReplay(t *testing.T) {
	const workers = 3
	ds := testDataset(t, 400, 5)
	grad := dyadicGradients(400, 9)
	var first *tree.Tree
	var firstTrace string
	for run := 0; run < 2; run++ {
		b, err := NewBuilder(schedCheckConfig(workers), ds)
		if err != nil {
			t.Fatal(err)
		}
		tr, trace := buildUnderSchedule(t, workers, 42, grad, b)
		if run == 0 {
			first, firstTrace = tr, fmt.Sprint(trace)
			continue
		}
		if fmt.Sprint(trace) != firstTrace {
			t.Fatal("same seed replayed a different interleaving")
		}
		if !treesEquivalent(first, tr) {
			t.Fatal("same interleaving grew a different tree")
		}
	}
}
