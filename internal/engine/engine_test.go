package engine

import (
	"slices"
	"testing"
	"testing/quick"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

func TestRootRowSet(t *testing.T) {
	grad := gh.Buffer{{G: 1, H: 1}, {G: 2, H: 2}, {G: 3, H: 3}}
	rs := RootRowSet(3, grad, false)
	if rs.Len() != 3 || rs.Mem != nil {
		t.Fatalf("plain rowset %+v", rs)
	}
	if s := rs.Sum(grad); s.G != 6 || s.H != 6 {
		t.Fatalf("sum %+v", s)
	}
	rs = RootRowSet(3, grad, true)
	if rs.Len() != 3 || rs.Mem == nil {
		t.Fatalf("membuf rowset %+v", rs)
	}
	if s := rs.Sum(grad); s.G != 6 || s.H != 6 {
		t.Fatalf("membuf sum %+v", s)
	}
}

func TestForEachRowOrder(t *testing.T) {
	grad := gh.NewBuffer(5)
	for _, mem := range []bool{false, true} {
		rs := RootRowSet(5, grad, mem)
		var got []int32
		rs.ForEachRow(func(r int32) { got = append(got, r) })
		for i, r := range got {
			if r != int32(i) {
				t.Fatalf("mem=%v: order %v", mem, got)
			}
		}
	}
}

func TestGoLeftFunc(t *testing.T) {
	bm := &dataset.BinnedMatrix{N: 3, M: 2, Bins: []uint8{
		1, 5,
		3, dataset.MissingBin,
		dataset.MissingBin, 0,
	}}
	s := tree.SplitInfo{Feature: 0, Bin: 2, DefaultLeft: false}
	goLeft := GoLeftFunc(bm, s)
	if !goLeft.GoLeft(0) {
		t.Fatal("bin 1 <= 2 should go left")
	}
	if goLeft.GoLeft(1) {
		t.Fatal("bin 3 > 2 should go right")
	}
	if goLeft.GoLeft(2) {
		t.Fatal("missing with default right should go right")
	}
	s.DefaultLeft = true
	goLeft = GoLeftFunc(bm, s)
	if !goLeft.GoLeft(2) {
		t.Fatal("missing with default left should go left")
	}
	if !goLeft.GoLeft(0) || goLeft.GoLeft(1) {
		t.Fatal("default left must not move the real bins")
	}
	// The second feature's column, and the largest possible split bin.
	s = tree.SplitInfo{Feature: 1, Bin: dataset.MissingBin - 1, DefaultLeft: false}
	goLeft = GoLeftFunc(bm, s)
	if !goLeft.GoLeft(0) || goLeft.GoLeft(1) || !goLeft.GoLeft(2) {
		t.Fatal("feature 1 split at the last bin, missing right")
	}
	s.DefaultLeft = true
	if !GoLeftFunc(bm, s).GoLeft(1) {
		t.Fatal("feature 1 split at the last bin, missing left")
	}
}

// refGoLeft is the split predicate as the paper states it.
func refGoLeft(bm *dataset.BinnedMatrix, s tree.SplitInfo, r int32) bool {
	b := bm.At(int(r), int(s.Feature))
	if b == dataset.MissingBin {
		return s.DefaultLeft
	}
	return b <= s.Bin
}

// partitionFixture builds an n-row binned matrix of m features with bins in
// [0, 10) and one value in eight missing, and dyadic gradients.
func partitionFixture(n, m int, seed uint64) (*dataset.BinnedMatrix, gh.Buffer) {
	rng := synth.NewRNG(seed)
	bm := &dataset.BinnedMatrix{N: n, M: m, Bins: make([]uint8, n*m)}
	for i := range bm.Bins {
		if rng.Intn(8) == 0 {
			bm.Bins[i] = dataset.MissingBin
		} else {
			bm.Bins[i] = uint8(rng.Intn(10))
		}
	}
	grad := gh.NewBuffer(n)
	for i := range grad {
		grad[i] = gh.Pair{G: float64(i) / 4, H: 1}
	}
	return bm, grad
}

func randomSplit(rng *synth.RNG, m int) tree.SplitInfo {
	return tree.SplitInfo{Feature: int32(rng.Intn(m)), Bin: uint8(rng.Intn(10)), DefaultLeft: rng.Intn(2) == 0}
}

func rowIDs(rs RowSet) []int32 {
	ids := make([]int32, 0, rs.Len())
	rs.ForEachRow(func(r int32) { ids = append(ids, r) })
	return ids
}

// checkPartition compares a partition of the rows listed in before with the
// reference filter: lefts pass, rights fail, both in the parent's order.
func checkPartition(t *testing.T, bm *dataset.BinnedMatrix, s tree.SplitInfo, before []int32, left, right RowSet) {
	t.Helper()
	var wantLeft, wantRight []int32
	for _, r := range before {
		if refGoLeft(bm, s, r) {
			wantLeft = append(wantLeft, r)
		} else {
			wantRight = append(wantRight, r)
		}
	}
	if got := rowIDs(left); !slices.Equal(got, wantLeft) {
		t.Fatalf("split %+v: left rows differ from the reference filter (%d vs %d rows)", s, len(got), len(wantLeft))
	}
	if got := rowIDs(right); !slices.Equal(got, wantRight) {
		t.Fatalf("split %+v: right rows differ from the reference filter (%d vs %d rows)", s, len(got), len(wantRight))
	}
}

func TestPartitionSerial(t *testing.T) {
	bm, grad := partitionFixture(1000, 3, 7)
	rng := synth.NewRNG(7)
	for _, mem := range []bool{false, true} {
		rs := RootRowSet(1000, grad, mem)
		s := randomSplit(rng, 3)
		l, r := Partition(rs, GoLeftFunc(bm, s), nil)
		checkPartition(t, bm, s, rowIDs(rs), l, r)
	}
}

func TestPartitionParallelMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	// Above the parallel threshold.
	const n = 100000
	bm, grad := partitionFixture(n, 2, 13)
	rng := synth.NewRNG(13)
	for _, mem := range []bool{false, true} {
		rs := RootRowSet(n, grad, mem)
		s := randomSplit(rng, 2)
		l, r := Partition(rs, GoLeftFunc(bm, s), pool)
		checkPartition(t, bm, s, rowIDs(rs), l, r)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	// Empty.
	l, r := Partition(RootRowSet(0, nil, false), SplitTest{}, nil)
	if l.Len() != 0 || r.Len() != 0 {
		t.Fatal("empty partition")
	}
	bm, grad := partitionFixture(100, 1, 1)
	for _, mem := range []bool{false, true} {
		rs := RootRowSet(100, grad, mem)
		// All left: every real bin is below the last one, missing follows.
		l, r = Partition(rs, GoLeftFunc(bm, tree.SplitInfo{Bin: dataset.MissingBin - 1, DefaultLeft: true}), nil)
		if l.Len() != 100 || r.Len() != 0 {
			t.Fatalf("mem=%v: all-left partition gave %d/%d", mem, l.Len(), r.Len())
		}
		// The empty child is still partitionable (and still of its kind).
		ll, lr := Partition(r, GoLeftFunc(bm, tree.SplitInfo{Bin: 3}), nil)
		if ll.Len() != 0 || lr.Len() != 0 || (r.Mem != nil) != mem {
			t.Fatalf("mem=%v: empty child", mem)
		}
		// All right: the split of the (all-left) child nobody passes.
		allRight := &dataset.BinnedMatrix{N: 100, M: 1, Bins: make([]uint8, 100)}
		for i := range allRight.Bins {
			allRight.Bins[i] = 5
		}
		l, r = Partition(l, GoLeftFunc(allRight, tree.SplitInfo{Bin: 4}), nil)
		if l.Len() != 0 || r.Len() != 100 {
			t.Fatalf("mem=%v: all-right partition gave %d/%d", mem, l.Len(), r.Len())
		}
		for i, id := range rowIDs(r) {
			if id != int32(i) {
				t.Fatalf("mem=%v: row %d of the all-right child is %d", mem, i, id)
			}
		}
	}
}

func TestPartitionMemPreservesGradients(t *testing.T) {
	bm, _ := partitionFixture(50, 1, 3)
	grad := gh.NewBuffer(50)
	for i := range grad {
		grad[i] = gh.Pair{G: float64(i) * 0.5, H: float64(i)}
	}
	rs := RootRowSet(50, grad, true)
	l, r := Partition(rs, GoLeftFunc(bm, tree.SplitInfo{Bin: 4}), nil)
	if l.Len() == 0 || r.Len() == 0 {
		t.Fatal("fixture split is one-sided")
	}
	check := func(set RowSet) {
		for _, e := range set.Mem {
			if e.G != grad[e.Row].G || e.H != grad[e.Row].H {
				t.Fatalf("gradient replica corrupted for row %d", e.Row)
			}
		}
	}
	check(l)
	check(r)
}

// TestPartitionProperty: for random row subsets (a child of a random first
// split, so a window in the middle of the arena) and random (feature, bin,
// default direction) splits on data with missing values, the serial path,
// the pool-parallel path and the reference filter agree row for row, for
// both row-list kinds, and the rows outside the node's window are not
// touched.
func TestPartitionProperty(t *testing.T) {
	pool := sched.NewPool(3)
	// Large enough that a child stays above parallelPartitionThreshold.
	const n, m = 4 * parallelPartitionThreshold, 4
	bm, grad := partitionFixture(n, m, 99)
	arenas := map[bool]*Arena{false: NewArena(n, false), true: NewArena(n, true)}
	f := func(seed uint64, mem bool) bool {
		rng := synth.NewRNG(seed)
		root := arenas[mem].Root(grad)
		first := randomSplit(rng, m)
		first.Bin = 4 + first.Bin%2 // both children keep over a third of the rows
		l, r := Partition(root, GoLeftFunc(bm, first), pool)
		checkPartition(t, bm, first, rowIDs(root), l, r)
		node, sibling := l, r
		if seed&1 == 1 {
			node, sibling = r, l
		}
		if node.Len() < parallelPartitionThreshold {
			t.Fatalf("seed %d: child of %d rows would not take the parallel path", seed, node.Len())
		}
		before, siblingBefore := rowIDs(node), rowIDs(sibling)
		s := randomSplit(rng, m)
		test := GoLeftFunc(bm, s)
		sl, sr := Partition(node, test, nil)
		checkPartition(t, bm, s, before, sl, sr)
		serialLeft, serialRight := rowIDs(sl), rowIDs(sr)
		pl, pr := Partition(node, test, pool)
		if !slices.Equal(rowIDs(pl), serialLeft) || !slices.Equal(rowIDs(pr), serialRight) {
			t.Fatalf("seed %d mem=%v split %+v: parallel partition differs from serial", seed, mem, s)
		}
		if mem {
			for _, e := range append(append(gh.MemBuf(nil), pl.Mem...), pr.Mem...) {
				if e.G != grad[e.Row].G || e.H != grad[e.Row].H {
					t.Fatalf("seed %d: gradient replica of row %d corrupted", seed, e.Row)
				}
			}
		}
		return slices.Equal(rowIDs(sibling), siblingBefore)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRepeatable: partitioning reads the node's rows and writes
// its window of the other buffer, so the same node can be partitioned
// again (the benchmark's probe does) with the same result.
func TestPartitionRepeatable(t *testing.T) {
	bm, grad := partitionFixture(500, 2, 5)
	s := tree.SplitInfo{Feature: 1, Bin: 4, DefaultLeft: true}
	for _, mem := range []bool{false, true} {
		root := RootRowSet(500, grad, mem)
		l1, r1 := Partition(root, GoLeftFunc(bm, s), nil)
		left, right := rowIDs(l1), rowIDs(r1)
		l2, r2 := Partition(root, GoLeftFunc(bm, s), nil)
		if !slices.Equal(rowIDs(l2), left) || !slices.Equal(rowIDs(r2), right) {
			t.Fatalf("mem=%v: second partition of the same root differs", mem)
		}
	}
}

// TestPartitionAllocFree: below the parallel threshold, partitioning a node
// of a warmed arena touches the heap not at all.
func TestPartitionAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	const n = 4096
	bm, grad := partitionFixture(n, 2, 21)
	pool := sched.NewPool(2)
	for _, mem := range []bool{false, true} {
		root := NewArena(n, mem).Root(grad)
		test := GoLeftFunc(bm, tree.SplitInfo{Feature: 1, Bin: 4})
		if allocs := testing.AllocsPerRun(20, func() {
			l, r := Partition(root, test, pool)
			Partition(l, test, nil)
			Partition(r, test, nil)
		}); allocs != 0 {
			t.Errorf("mem=%v: partition allocates %.1f times per run", mem, allocs)
		}
	}
}

func TestScatterLeaves(t *testing.T) {
	grad := gh.NewBuffer(6)
	leaves := map[int32]RowSet{
		3: {Rows: []int32{0, 2, 4}},
		5: RowSet{Mem: gh.BuildMemBuf([]int32{1, 3}, grad)},
	}
	leafOf := ScatterLeaves(6, leaves)
	want := []int32{3, 5, 3, 5, 3, tree.NoNode}
	for i, w := range want {
		if leafOf[i] != w {
			t.Fatalf("row %d: leaf %d want %d", i, leafOf[i], w)
		}
	}
}
