// Package engine defines the tree-builder contract shared by HarpGBDT and
// the baseline trainers, plus the row-set and partitioning machinery
// (ApplySplit) every engine needs: one row arena per builder, in which a
// node's row list — with or without MemBuf gradient replicas — is
// partitioned stably, serially or in parallel, into sub-ranges of itself.
package engine

import (
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/tree"
)

// BuiltTree is the result of building one tree: the model plus the leaf
// assignment of every training row, which lets the booster update margins
// without re-walking the tree.
type BuiltTree struct {
	Tree *tree.Tree
	// LeafOf[i] is the node id of the leaf containing row i.
	LeafOf []int32
}

// Builder grows one regression tree from per-row gradients. A Builder is
// bound to a dataset and a scheduler at construction and may be reused
// across boosting rounds.
type Builder interface {
	// Name identifies the engine for reports ("harp-async", "xgb-hist", ...).
	Name() string
	// BuildTree grows a tree for the given gradients.
	BuildTree(grad gh.Buffer) (*BuiltTree, error)
	// Pool exposes the scheduler for instrumentation.
	Pool() *sched.Pool
	// Profile exposes the phase breakdown accumulated so far.
	Profile() *profile.Breakdown
}

// ClusterSized is optionally implemented by builders that simulate a
// multi-node cluster (internal/dist). The boosting loop records the node
// count in its checkpoints so a resume under a different sharding is
// rejected instead of silently producing a different cost decomposition.
type ClusterSized interface {
	// ClusterNodes returns the configured cluster size.
	ClusterNodes() int
}

// RowSet is the set of training rows in one tree node, in stable order. When
// the engine enables the MemBuf optimization, Mem carries (rowid, g, h)
// entries and Rows is nil; otherwise Rows carries bare ids and gradients are
// gathered from the gradient buffer on every histogram pass.
//
// A row set that came from an Arena (a root, or a child Partition returned)
// is a window of one of the arena's two buffers, and only such a set can be
// partitioned; one built by hand around a slice can only be read.
type RowSet struct {
	Rows []int32
	Mem  gh.MemBuf

	arena *Arena
	off   int // the window is [off, off+Len()) ...
	side  int // ... of arena buffer side
}

// Len returns the number of rows in the set.
func (rs RowSet) Len() int {
	if rs.Mem != nil {
		return len(rs.Mem)
	}
	return len(rs.Rows)
}

// Sum returns the gradient total of the set.
func (rs RowSet) Sum(grad gh.Buffer) gh.Pair {
	if rs.Mem != nil {
		return rs.Mem.Sum()
	}
	return grad.SumRows(rs.Rows)
}

// ForEachRow calls fn for every row id in order.
func (rs RowSet) ForEachRow(fn func(r int32)) {
	if rs.Mem != nil {
		for _, e := range rs.Mem {
			fn(e.Row)
		}
		return
	}
	for _, r := range rs.Rows {
		fn(r)
	}
}

// Arena is the row storage of one tree builder: two n-row buffers of the
// builder's row-list kind plus n decision bytes, allocated once and reused
// for every tree. The root occupies all of buffer 0; Partition writes a
// node's children into the node's own window of the other buffer, so every
// node's rows are a sub-slice of its parent's range and nothing is
// allocated per node. A node touches only its own window of either buffer
// (and of the decision bytes), and sibling windows are disjoint, so ASYNC
// workers partition different nodes concurrently without synchronization.
// A node's children land where the node's parent was, so a row set is
// dead once its children have been partitioned: builders drop a node's
// set as soon as they partition it.
type Arena struct {
	rows [2][]int32
	mem  [2]gh.MemBuf
	// goLeft[i] is the split decision (1 = left) of the row at position i
	// of the window being partitioned: written by the count pass, read by
	// the scatter pass, so the split test runs once per row.
	goLeft []uint8
}

// NewArena allocates the row storage for n training rows.
func NewArena(n int, memBuf bool) *Arena {
	a := &Arena{goLeft: make([]uint8, n)}
	for side := range a.rows {
		if memBuf {
			a.mem[side] = make(gh.MemBuf, n)
		} else {
			a.rows[side] = make([]int32, n)
		}
	}
	return a
}

// Root refills buffer 0 with all rows in ascending order (and, in a MemBuf
// arena, their gradients) and returns it as the root's row set. Every row
// set of the previous tree is invalid afterwards.
func (a *Arena) Root(grad gh.Buffer) RowSet {
	if mb := a.mem[0]; mb != nil {
		for i := range mb {
			p := grad[i]
			mb[i] = gh.Entry{Row: int32(i), G: p.G, H: p.H}
		}
	} else {
		for i := range a.rows[0] {
			a.rows[0][i] = int32(i)
		}
	}
	return a.window(0, 0, len(a.goLeft))
}

// window returns rows [off, off+n) of buffer side as a row set.
func (a *Arena) window(side, off, n int) RowSet {
	rs := RowSet{arena: a, off: off, side: side}
	if a.mem[side] != nil {
		rs.Mem = a.mem[side][off : off+n]
	} else {
		rs.Rows = a.rows[side][off : off+n]
	}
	return rs
}

// RootRowSet builds the row set of the root node (all rows) in an arena of
// its own.
func RootRowSet(n int, grad gh.Buffer, memBuf bool) RowSet {
	return NewArena(n, memBuf).Root(grad)
}

// SplitTest is the split predicate of ApplySplit as a value, so Partition
// evaluates it in a typed loop instead of calling a closure per row. Row
// r's bin of the split feature is col[r*stride]; the row goes left iff
// bin+shift <= thresh in uint8 arithmetic. With shift 0 that is "bin <=
// split bin" and a missing value (bin id 255) goes right; with shift 1 the
// missing id wraps to 0 and goes left while every real bin (at most 254)
// keeps its order against the shifted threshold — one compare, no
// missing-value branch.
type SplitTest struct {
	col    []uint8
	stride int
	shift  uint8
	thresh uint8
}

// NewSplitTest returns the predicate of split s reading the split
// feature's bins from col with the given row stride: a feature-block panel
// column (dataset.ColumnBlocks), which stays cache-resident where the full
// matrix does not, or a column of the row-major binned matrix.
func NewSplitTest(col []uint8, stride int, s tree.SplitInfo) SplitTest {
	t := SplitTest{col: col, stride: stride, thresh: s.Bin}
	if s.DefaultLeft {
		t.shift, t.thresh = 1, s.Bin+1
	}
	return t
}

// GoLeftFunc returns the split predicate of s over the row-major binned
// matrix: missing values follow the default direction, others go left iff
// their bin id is <= the split bin. (benchmark/, which a measured change
// may not edit, calls it by this name.)
func GoLeftFunc(bm *dataset.BinnedMatrix, s tree.SplitInfo) SplitTest {
	return NewSplitTest(bm.Bins[s.Feature:], bm.M, s)
}

// GoLeft reports whether row r goes to the left child.
func (t SplitTest) GoLeft(r int32) bool {
	return t.col[int(r)*t.stride]+t.shift <= t.thresh
}

// markRows writes the decision of every row into goLeft (same length) and
// returns the number that go left.
func (t SplitTest) markRows(rows []int32, goLeft []uint8) int {
	goLeft = goLeft[:len(rows)]
	nl := 0
	for i, r := range rows {
		var g uint8
		if t.GoLeft(r) {
			g = 1
		}
		goLeft[i] = g
		nl += int(g)
	}
	return nl
}

// markMem is markRows over MemBuf entries.
func (t SplitTest) markMem(mb gh.MemBuf, goLeft []uint8) int {
	goLeft = goLeft[:len(mb)]
	nl := 0
	for i := range mb {
		var g uint8
		if t.GoLeft(mb[i].Row) {
			g = 1
		}
		goLeft[i] = g
		nl += int(g)
	}
	return nl
}

// scatter moves src into dst in order: the elements whose decision byte is
// 1 to dst[li:], the others to dst[ri:]. The destination index is selected
// arithmetically, so the loop has no data-dependent branch.
func scatter[E any](src, dst []E, goLeft []uint8, li, ri int) {
	goLeft = goLeft[:len(src)]
	for i := range src {
		g := int(goLeft[i])
		dst[ri^((li^ri)&-g)] = src[i]
		li += g
		ri += 1 - g
	}
}

// mark runs the count pass over positions [lo, hi) of the set.
func (rs RowSet) mark(t SplitTest, lo, hi int) int {
	goLeft := rs.arena.goLeft[rs.off+lo : rs.off+hi]
	if rs.Mem != nil {
		return t.markMem(rs.Mem[lo:hi], goLeft)
	}
	return t.markRows(rs.Rows[lo:hi], goLeft)
}

// move runs the scatter pass over positions [lo, hi) of the set: into the
// set's window of the other buffer, lefts from position li, rights from ri.
func (rs RowSet) move(lo, hi, li, ri int) {
	a, end := rs.arena, rs.off+rs.Len()
	goLeft := a.goLeft[rs.off+lo : rs.off+hi]
	if rs.Mem != nil {
		scatter(rs.Mem[lo:hi], a.mem[1-rs.side][rs.off:end], goLeft, li, ri)
		return
	}
	scatter(rs.Rows[lo:hi], a.rows[1-rs.side][rs.off:end], goLeft, li, ri)
}

// parallelPartitionThreshold is the row count above which partitioning
// fans out.
const parallelPartitionThreshold = 1 << 15

// Partition stably splits an arena-backed row set by the split test: a
// count pass records every row's decision, a scatter pass moves the rows
// into the set's window of the arena's other buffer, lefts first. The
// children are the two halves of that window; the set's own rows are
// overwritten when a child is partitioned in turn. When pool is non-nil
// and the set is large, both passes run in parallel over row chunks (count
// / prefix / scatter) and produce the exact stable order of the serial
// path.
func Partition(rs RowSet, t SplitTest, pool *sched.Pool) (left, right RowSet) {
	// Span only on the pool-parallel path: the pool==nil path runs inside
	// worker-owned node processing, which already has a lane span.
	if pool != nil {
		if sp := obs.StartSpan("engine", "Partition"); sp.Active() {
			defer sp.End()
		}
	}
	n := rs.Len()
	var nl int
	if pool == nil || pool.Workers() == 1 || n < parallelPartitionThreshold {
		nl = rs.mark(t, 0, n)
		rs.move(0, n, 0, nl)
	} else {
		chunk := (n + pool.Workers() - 1) / pool.Workers()
		lefts := make([]int, (n+chunk-1)/chunk)
		pool.ParallelFor(n, chunk, func(lo, hi, _ int) {
			lefts[lo/chunk] = rs.mark(t, lo, hi)
		})
		for _, c := range lefts {
			nl += c
		}
		// Chunk c's lefts start after the lefts of the chunks before it,
		// its rights after nl plus the rights of the chunks before it.
		li := 0
		for c, cnt := range lefts {
			lefts[c] = li
			li += cnt
		}
		pool.ParallelFor(n, chunk, func(lo, hi, _ int) {
			li := lefts[lo/chunk]
			rs.move(lo, hi, li, nl+lo-li)
		})
	}
	a, dst := rs.arena, 1-rs.side
	return a.window(dst, rs.off, nl), a.window(dst, rs.off+nl, n-nl)
}

// ScatterLeaves fills leafOf (length n) given the final leaf row sets.
func ScatterLeaves(n int, leaves map[int32]RowSet) []int32 {
	leafOf := make([]int32, n)
	for i := range leafOf {
		leafOf[i] = tree.NoNode
	}
	for id, rs := range leaves {
		rs.ForEachRow(func(r int32) { leafOf[r] = id })
	}
	return leafOf
}
