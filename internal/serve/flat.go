// Package serve is the inference path of the trainer: it compiles a
// trained ensemble into one array of 12-byte node records, predicts
// batch-at-a-time through the sched pool, and wraps the whole path in
// the observability layer (latency histograms, request spans on a
// dedicated trace lane, structured access logs, admission control) that
// the training side already has.
//
// There is one scoring kernel, PredictRangeInto, and it is the paper's
// block idea (Sec. IV-A) applied to prediction: a block of rows is keyed
// once — every float32 becomes an int32 with the same order — and then
// each tree in turn, small enough to stay in L1, has the whole block
// pass through it, eight rows in flight as eight independent chains. A
// step is one integer compare, left + b2i(keys[off] > tkey): a missing
// value needs no test because the block is keyed twice, once with NaN
// above every threshold and once below, and a node reads the column that
// matches its default direction; a leaf steps to itself, so rows that
// arrive early wait without a branch. DESIGN.md ("The keyed block
// kernel") has the measurements and the variants that lost.
//
// Bit-identity with the pointer walk (tree.PredictRowRaw) is a hard
// invariant, not a tolerance: fkey(v) > fkey(t) exactly when v > t for
// every non-NaN pair, and margins accumulate in the same float64 order
// (base score, then trees in training order). The equivalence tests pin
// this across engines, objectives, the multiclass path and a hand-built
// model of edge thresholds.
package serve

import (
	"fmt"
	"math"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/objective"
	"harpgbdt/internal/tree"
)

// lanes is the number of rows that advance through a tree together: eight
// independent load-compare-add chains in one loop, enough to hide the two
// dependent L1 loads of a step behind the other seven.
const lanes = 8

// keyBlockBytes bounds the keyed copy of one row block so that it stays
// cache-resident next to the tree the block is walking: 64 rows of a
// 28-feature model, the minimum of one lane group when rows are wide.
const (
	keyBlockBytes = 16 << 10
	maxBlockRows  = 64
)

// node is one compiled tree node. A step of the walk is
// j = left + b2i(keys[off] > tkey): one integer compare, no branch.
type node struct {
	tkey int32  // fkey(split value); MaxInt32 on a leaf, so the compare is never true
	off  uint32 // lanes x the key column: 2 x feature where missing goes right, one more where it goes left
	left uint32 // left child, the right one is left+1 (tree.AddChildren guarantees it); a leaf points at itself
}

// Flat is a compiled ensemble: every tree's nodes flattened into one
// array of 12-byte records in training order, leaf weights side by side
// in float64. Compile once, predict from any number of goroutines (Flat
// is immutable after compilation; per-block state lives in Scratch).
type Flat struct {
	numFeatures int
	numClass    int       // 1 = binary/regression margin model
	baseScores  []float64 // length numClass
	obj         objective.Objective

	cols      int      // key columns per row: 2 x numFeatures
	blockRows int      // rows keyed and walked per block, a multiple of lanes
	treeStart []uint32 // root of each tree
	treeClass []int32  // class of each tree's margin accumulator
	nodes     []node
	weight    []float64 // leaf weights, by node
}

// NumFeatures returns the expected row width.
func (f *Flat) NumFeatures() int { return f.numFeatures }

// NumClass returns the number of output classes (1 = single margin).
func (f *Flat) NumClass() int { return f.numClass }

// NumTrees returns the compiled tree count.
func (f *Flat) NumTrees() int { return len(f.treeStart) }

// NumNodes returns the total flattened node count.
func (f *Flat) NumNodes() int { return len(f.nodes) }

// Scratch is the per-goroutine mutable state of prediction: one row
// block's keys (lane-interleaved: row r of the block, column c at
// (r/lanes*cols+c)*lanes + r%lanes) and its margin accumulators.
// Allocate one per worker with NewScratch; the kernel then allocates
// nothing.
type Scratch struct {
	keys    []int32
	margins []float64
}

// NewScratch allocates scratch state sized for this model.
func (f *Flat) NewScratch() *Scratch {
	return &Scratch{
		keys:    make([]int32, f.blockRows*f.cols),
		margins: make([]float64, f.blockRows*f.numClass),
	}
}

// Compile flattens a trained binary/regression model. The model is
// validated structurally first, so a corrupt model fails here with a
// clear error instead of mispredicting silently.
func Compile(m *boost.Model) (*Flat, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Model.Predict falls back to the raw margin when the objective is
	// unknown; mirror that exactly (obj stays nil = identity).
	obj, _ := objective.New(m.Objective)
	f := &Flat{
		numFeatures: m.NumFeatures,
		numClass:    1,
		baseScores:  []float64{m.BaseScore},
		obj:         obj,
	}
	trees := make([]treeRef, len(m.Trees))
	for i, t := range m.Trees {
		trees[i] = treeRef{t: t, class: 0}
	}
	if err := f.flatten(trees); err != nil {
		return nil, err
	}
	return f, nil
}

// CompileMulticlass flattens a trained softmax ensemble. Trees keep
// their training order (round-major, class within round), so each
// class's margin accumulates in exactly the order PredictProba uses.
func CompileMulticlass(m *boost.MulticlassModel) (*Flat, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if m.NumClass < 2 || len(m.BaseScores) != m.NumClass {
		return nil, fmt.Errorf("serve: corrupt multiclass model (%d classes, %d base scores)", m.NumClass, len(m.BaseScores))
	}
	f := &Flat{
		numFeatures: m.NumFeatures,
		numClass:    m.NumClass,
		baseScores:  append([]float64(nil), m.BaseScores...),
	}
	var trees []treeRef
	for _, round := range m.Trees {
		if len(round) != m.NumClass {
			return nil, fmt.Errorf("serve: multiclass round has %d trees, want %d", len(round), m.NumClass)
		}
		for c, t := range round {
			trees = append(trees, treeRef{t: t, class: int32(c)})
		}
	}
	if err := f.flatten(trees); err != nil {
		return nil, err
	}
	return f, nil
}

type treeRef struct {
	t     *tree.Tree
	class int32
}

// flatten builds the node records from the trees. Node ids equal their
// slice index (validated), so a child's flat index is the tree's base
// plus its id.
func (f *Flat) flatten(trees []treeRef) error {
	total := 0
	for ti, tr := range trees {
		if tr.t == nil || len(tr.t.Nodes) == 0 {
			return fmt.Errorf("serve: tree %d empty", ti)
		}
		total += len(tr.t.Nodes)
		for i := range tr.t.Nodes {
			// The feature count is derived when the model does not carry one.
			if n := &tr.t.Nodes[i]; !n.IsLeaf() && int(n.Feature) >= f.numFeatures {
				f.numFeatures = int(n.Feature) + 1
			}
		}
	}
	if uint64(total) > math.MaxUint32 {
		return fmt.Errorf("serve: %d nodes do not fit a 32-bit node index", total)
	}
	f.cols = max(2*f.numFeatures, 1) // a leaf reads column 0
	f.blockRows = min(max(keyBlockBytes/(4*f.cols)/lanes*lanes, lanes), maxBlockRows)
	f.treeStart = make([]uint32, 0, len(trees))
	f.treeClass = make([]int32, 0, len(trees))
	f.nodes = make([]node, 0, total)
	f.weight = make([]float64, 0, total)
	for ti, tr := range trees {
		base := uint32(len(f.nodes))
		f.treeStart = append(f.treeStart, base)
		f.treeClass = append(f.treeClass, tr.class)
		for i := range tr.t.Nodes {
			n := &tr.t.Nodes[i]
			if n.IsLeaf() {
				f.nodes = append(f.nodes, node{tkey: math.MaxInt32, left: base + uint32(i)})
				f.weight = append(f.weight, n.Weight)
				continue
			}
			// What the walk rests on: siblings adjacent, children after
			// their parent (so every path ends), a key column to read.
			if n.Right != n.Left+1 || n.Left <= int32(i) || int(n.Right) >= len(tr.t.Nodes) || n.Feature < 0 {
				return fmt.Errorf("serve: tree %d node %d: children (%d, %d) or feature %d out of order", ti, i, n.Left, n.Right, n.Feature)
			}
			if n.SplitValue != n.SplitValue {
				return fmt.Errorf("serve: tree %d node %d has NaN split value", ti, i)
			}
			col := 2 * int(n.Feature)
			if n.DefaultLeft {
				col++
			}
			f.nodes = append(f.nodes, node{tkey: fkey(n.SplitValue), off: uint32(col * lanes), left: base + uint32(n.Left)})
			f.weight = append(f.weight, 0)
		}
	}
	return nil
}

// fkey maps a non-NaN float32 to an int32 with the same order:
// fkey(a) > fkey(b) exactly when a > b. Adding zero folds -0 into +0
// (they compare equal); the magnitude bits of a non-negative float
// already order as integers, and complementing them reverses the order
// for the negative ones. The real keys end at fkey(±Inf) = 0x7f800000
// and its complement.
func fkey(v float32) int32 {
	b := int32(math.Float32bits(v + 0))
	return b&math.MaxInt32 ^ b>>31
}

func b2i(b bool) uint64 {
	var i uint64
	if b {
		i = 1
	}
	return i
}

// keyRow writes one row's keys into its lane of a key group, twice per
// feature: fkey(v) in both columns, except that a missing value (NaN,
// either sign: magnitude bits above 0x7f800000) becomes those bits
// themselves in the even column — above every real key, so the walk goes
// right — and their complement in the odd one, below every real key.
// Which column a node reads is its default direction, fixed at compile
// time: a missing value costs the walk nothing, and keying has no branch
// for a sparse row to mispredict.
func keyRow(row []float32, group []int32) {
	for c, v := range row {
		b := int32(math.Float32bits(v + 0))
		a, s := b&math.MaxInt32, b>>31
		nan := (0x7f800000 - a) >> 31 // all ones on NaN
		p := (*[lanes + 1]int32)(group[c*2*lanes:])
		p[0] = a ^ (s &^ nan)
		p[lanes] = p[0] ^ nan
	}
}

// walk advances the eight rows of one key group from the root of a tree
// to their leaves, as eight independent chains in one loop, and adds the
// leaf weights to the rows' accumulators, k apart. A child's index is
// greater than its parent's and a leaf steps to itself, so the lanes'
// indices sum to what they did a step ago exactly when every lane sits
// on a leaf (64-bit lanes: eight 32-bit indices cannot wrap the sum).
func walk(nodes []node, weight []float64, kg []int32, root uint32, acc []float64, k int) {
	r := uint64(root)
	i0, i1, i2, i3, i4, i5, i6, i7 := r, r, r, r, r, r, r, r
	for sum := uint64(0); ; {
		n := &nodes[i0]
		i0 = uint64(n.left) + b2i(kg[n.off] > n.tkey)
		n = &nodes[i1]
		i1 = uint64(n.left) + b2i(kg[n.off+1] > n.tkey)
		n = &nodes[i2]
		i2 = uint64(n.left) + b2i(kg[n.off+2] > n.tkey)
		n = &nodes[i3]
		i3 = uint64(n.left) + b2i(kg[n.off+3] > n.tkey)
		n = &nodes[i4]
		i4 = uint64(n.left) + b2i(kg[n.off+4] > n.tkey)
		n = &nodes[i5]
		i5 = uint64(n.left) + b2i(kg[n.off+5] > n.tkey)
		n = &nodes[i6]
		i6 = uint64(n.left) + b2i(kg[n.off+6] > n.tkey)
		n = &nodes[i7]
		i7 = uint64(n.left) + b2i(kg[n.off+7] > n.tkey)
		at := i0 + i1 + i2 + i3 + i4 + i5 + i6 + i7
		if at == sum {
			break
		}
		sum = at
	}
	acc = acc[:7*k+1]
	acc[0] += weight[i0]
	acc[k] += weight[i1]
	acc[2*k] += weight[i2]
	acc[3*k] += weight[i3]
	acc[4*k] += weight[i4]
	acc[5*k] += weight[i5]
	acc[6*k] += weight[i6]
	acc[7*k] += weight[i7]
}

// PredictRow returns the transformed single-class prediction for one
// raw row (NaN = missing) — bit-identical to Model.Predict. Panics on a
// multiclass model; use PredictProbaRow there.
func (f *Flat) PredictRow(row []float32, s *Scratch) float64 {
	if f.numClass != 1 {
		panic("serve: PredictRow on a multiclass model")
	}
	var out [1]float64
	f.PredictProbaRow(row, s, out[:])
	return out[0]
}

// PredictProbaRow writes the softmax class probabilities for one raw
// row into out (length NumClass) — bit-identical to
// MulticlassModel.PredictProba. It is a one-row block through the batch
// kernel.
func (f *Flat) PredictProbaRow(row []float32, s *Scratch, out []float64) {
	f.PredictRangeInto(&dataset.Dense{N: 1, M: len(row), Values: row}, 0, 1, out, s)
}

// PredictRangeInto predicts rows [lo, hi) of the matrix into out, which
// holds NumClass values per row indexed by absolute row
// (out[i*NumClass+c]). This is the one scoring kernel, block-wise like
// the training tasks: a block of rows is keyed once into s, then every
// tree in turn — small enough to sit in L1 while the block passes
// through it — advances the block's rows eight at a time. Per row the
// float64 additions are the base score, then the trees in training
// order, exactly the pointer walk's. With a preallocated Scratch and
// output it allocates nothing (the tests pin AllocsPerRun == 0).
func (f *Flat) PredictRangeInto(d *dataset.Dense, lo, hi int, out []float64, s *Scratch) {
	m, k, cols := f.numFeatures, f.numClass, f.cols
	if d.M < m { // CheckDense is the error path; never key the next row's cells
		panic(fmt.Sprintf("serve: model expects %d features, matrix has %d", m, d.M))
	}
	nodes, weight, keys, margins := f.nodes, f.weight, s.keys, s.margins
	for ; lo < hi; lo += f.blockRows {
		nb := min(f.blockRows, hi-lo)
		for r := 0; r < nb; r++ {
			keyRow(d.Values[(lo+r)*d.M:][:m], keys[r/lanes*cols*lanes+r%lanes:])
			copy(margins[r*k:(r+1)*k], f.baseScores)
		}
		// The lanes past nb in the last group walk whatever keys the
		// scratch holds — any key leads to a leaf — and their sums land
		// in accumulators nobody reads.
		for t, root := range f.treeStart {
			c := int(f.treeClass[t])
			for g := 0; g < nb; g += lanes {
				walk(nodes, weight, keys[g*cols:(g+lanes)*cols], root, margins[g*k+c:], k)
			}
		}
		for r := 0; r < nb; r++ {
			switch {
			case k > 1:
				boost.Softmax(out[(lo+r)*k:(lo+r+1)*k], margins[r*k:(r+1)*k])
			case f.obj != nil:
				out[lo+r] = f.obj.Transform(margins[r])
			default:
				out[lo+r] = margins[r]
			}
		}
	}
}

// CheckDense validates a matrix's shape against the compiled model.
func (f *Flat) CheckDense(d *dataset.Dense) error {
	if d.M != f.numFeatures {
		return fmt.Errorf("serve: model expects %d features, matrix has %d", f.numFeatures, d.M)
	}
	return nil
}

// Bytes reports the compiled model's memory footprint (12-byte node
// records plus the leaf-weight array), for capacity planning and the
// /progress snapshot.
func (f *Flat) Bytes() int {
	return len(f.nodes)*(12+8) + len(f.treeStart)*8 + len(f.baseScores)*8
}
