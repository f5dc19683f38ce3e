package serve

import (
	"math"
	"testing"
	"testing/quick"

	"harpgbdt/internal/baseline"
	"harpgbdt/internal/boost"
	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

func splitParams() tree.SplitParams {
	return tree.SplitParams{Lambda: 1, Gamma: 0, MinChildWeight: 1}
}

// trainTestData builds a deterministic train/test split and salts the
// test matrix with missing values and out-of-range magnitudes so the
// equivalence sweep exercises the NaN sentinel and the unclamped
// overflow bin, not just in-distribution values.
func trainTestData(t *testing.T, rows int) (*dataset.Dataset, *dataset.Dense) {
	t.Helper()
	ds, testX, _, err := synth.MakeTrainTest(
		synth.Config{Spec: synth.HiggsLike, Rows: rows, Seed: 2019}, 200, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < testX.N; i++ {
		switch i % 5 {
		case 1:
			testX.SetMissing(i, i%testX.M)
		case 3:
			testX.Set(i, i%testX.M, 1e9) // above every training cut
		case 4:
			testX.Set(i, i%testX.M, -1e9) // below every training cut
		}
	}
	return ds, testX
}

func engineBuilders(t *testing.T, ds *dataset.Dataset) map[string]engine.Builder {
	t.Helper()
	bcfg := func(g grow.Method) baseline.Config {
		return baseline.Config{Growth: g, TreeSize: 6, Params: splitParams(), Workers: 4, Virtual: true}
	}
	harp, err := core.NewBuilder(core.Config{
		Mode: core.Async, K: 8, Growth: grow.Leafwise, TreeSize: 6,
		Params: splitParams(), Workers: 4, Virtual: true, UseMemBuf: true,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := baseline.NewXGBHist(bcfg(grow.Depthwise), ds)
	if err != nil {
		t.Fatal(err)
	}
	xl, err := baseline.NewXGBHist(bcfg(grow.Leafwise), ds)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := baseline.NewLightGBM(bcfg(grow.Leafwise), ds)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]engine.Builder{
		"harp": harp, "xgb-depth": xd, "xgb-leaf": xl, "lightgbm": lg,
	}
}

// TestFlatBitIdentical is the golden equivalence sweep: on every engine
// and both objectives, the compiled predictor must match the pointer
// walk bit for bit — row-at-a-time against Model.Predict and
// batch-at-a-time against Model.PredictDense.
func TestFlatBitIdentical(t *testing.T) {
	ds, testX := trainTestData(t, 3000)
	for _, objective := range []string{"binary:logistic", "reg:squarederror"} {
		for name, b := range engineBuilders(t, ds) {
			res, err := boost.Train(b, ds, boost.Config{Rounds: 6, Objective: objective}, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: train: %v", name, objective, err)
			}
			m := res.Model
			flat, err := Compile(m)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", name, objective, err)
			}
			if flat.NumClass() != 1 || flat.NumFeatures() != m.NumFeatures {
				t.Fatalf("%s/%s: shape %d/%d", name, objective, flat.NumClass(), flat.NumFeatures())
			}
			s := flat.NewScratch()
			for i := 0; i < testX.N; i++ {
				want := m.Predict(testX.Row(i))
				got := flat.PredictRow(testX.Row(i), s)
				if got != want {
					t.Fatalf("%s/%s row %d: flat %v != walk %v", name, objective, i, got, want)
				}
			}
			want, err := m.PredictDense(testX)
			if err != nil {
				t.Fatalf("%s/%s: dense walk: %v", name, objective, err)
			}
			got := make([]float64, testX.N)
			flat.PredictRangeInto(testX, 0, testX.N, got, s)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s batch row %d: flat %v != walk %v", name, objective, i, got[i], want[i])
				}
			}
		}
	}
}

// keyEdges are the float32 values where an order-preserving integer key
// could go wrong: both zeros, the denormal range, the largest finite
// values and the infinities.
var keyEdges = []float32{
	float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
	float32(math.Copysign(0, -1)), 0,
	math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), // the largest denormal
	math.Float32frombits(0x00800000), 1, math.MaxFloat32, float32(math.Inf(1)),
}

// TestKeyOrder pins the transform the kernel rests on: fkey(a) > fkey(b)
// exactly when a > b, on the edge table and on random bit patterns, and
// keyRow agreeing with fkey on every real value while it puts a NaN of
// either sign bit above fkey(+Inf) in the missing-goes-right column and
// below fkey(-Inf) in the other, before the transform could misplace it.
func TestKeyOrder(t *testing.T) {
	lowest, highest := fkey(float32(math.Inf(-1))), fkey(float32(math.Inf(1)))
	check := func(a, b float32) bool {
		if a != a || b != b {
			return true
		}
		ka, kb := fkey(a), fkey(b)
		group := make([]int32, 2*lanes)
		keyRow([]float32{a}, group)
		return (ka > kb) == (a > b) && (ka == kb) == (a == b) &&
			ka >= lowest && ka <= highest && ka < math.MaxInt32 && group[0] == ka && group[lanes] == ka
	}
	for _, a := range keyEdges {
		for _, b := range keyEdges {
			if !check(a, b) {
				t.Errorf("fkey(%g)=%d, fkey(%g)=%d: order differs", a, fkey(a), b, fkey(b))
			}
		}
	}
	if err := quick.Check(func(x, y uint32) bool {
		return check(math.Float32frombits(x), math.Float32frombits(y))
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xffffffff} {
		group := make([]int32, 2*lanes)
		keyRow([]float32{math.Float32frombits(bits)}, group)
		if group[0] <= highest || group[lanes] >= lowest {
			t.Errorf("NaN %#x keyed to (%d, %d), inside [%d, %d]", bits, group[0], group[lanes], lowest, highest)
		}
	}
}

// TestKeyGroupMatchesKeyRow pins the feature-major keying to the
// row-major one: keyGroup writes exactly the keys keyRow writes, lane for
// lane and column for column, over the edge table and NaNs of either sign
// with and without a payload, and reads its rows stride cells apart when
// the matrix is wider than the model. Every lane of a column holds a
// different value, so a swapped lane or a wrong stride shows.
func TestKeyGroupMatchesKeyRow(t *testing.T) {
	vals := append([]float32(nil), keyEdges...)
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xffffffff, 0x7fa5a5a5} {
		vals = append(vals, math.Float32frombits(bits))
	}
	m := 2*len(keyEdges) + 5
	for _, stride := range []int{m, m + 3} {
		x := make([]float32, lanes*stride)
		for r := 0; r < lanes; r++ {
			for c := 0; c < stride; c++ {
				x[r*stride+c] = vals[(c+3*r)%len(vals)]
			}
		}
		want, got := make([]int32, 2*m*lanes), make([]int32, 2*m*lanes)
		for i := range want {
			want[i], got[i] = -7, -7 // a cell neither writes stays equal
		}
		for r := 0; r < lanes; r++ {
			keyRow(x[r*stride:][:m], want[r:])
		}
		keyGroup(x, stride, m, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stride %d, lane %d, key column %d: keyGroup %d != keyRow %d",
					stride, i%lanes, i/lanes, got[i], want[i])
			}
		}
	}
}

// TestFlatWideRowsBitIdentical scores a 512-feature YFCCLike model, whose
// blocks are one lane group (blockRows == lanes), over rows with missing
// cells: every range size around the lane width, from lo 0 and 5, must
// give Model.Predict's bits, from the model-width matrix and from one
// three columns wider whose extra cells the kernel must never read.
func TestFlatWideRowsBitIdentical(t *testing.T) {
	const features, extra = 512, 3
	ds, testX, _, err := synth.MakeTrainTest(
		synth.Config{Spec: synth.YFCCLike, Rows: 600, Features: features, Seed: 45}, 40, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBuilder(core.Config{Mode: core.Sync, K: 8, Growth: grow.Leafwise,
		TreeSize: 16, UseMemBuf: true, Params: splitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := boost.Train(b, ds, boost.Config{Rounds: 4, Objective: "binary:logistic"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	flat, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if flat.blockRows != lanes {
		t.Fatalf("blockRows %d at %d features, want %d", flat.blockRows, features, lanes)
	}
	missing := 0
	for _, v := range testX.Values {
		if v != v {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("no missing cell in the test rows")
	}
	wide := dataset.NewDense(testX.N, features+extra)
	for i := 0; i < testX.N; i++ {
		row := wide.Values[i*wide.M:][:wide.M]
		copy(row, testX.Row(i))
		row[features], row[features+1], row[features+2] = 1e30, float32(math.NaN()), -1e30
	}
	s := flat.NewScratch()
	out := make([]float64, testX.N)
	for _, x := range []*dataset.Dense{testX, wide} {
		for _, lo := range []int{0, 5} {
			for _, size := range []int{1, 4, 7, 8, 9, 15, 16, 17} {
				for i := range out {
					out[i] = -1
				}
				flat.PredictRangeInto(x, lo, lo+size, out, s)
				for i := range out {
					want := -1.0
					if i >= lo && i < lo+size {
						want = m.Predict(testX.Row(i))
					}
					if out[i] != want {
						t.Fatalf("width %d lo %d size %d row %d: flat %v != walk %v", x.M, lo, size, i, out[i], want)
					}
				}
			}
		}
	}
}

// edgeModel is a hand-built ensemble over two features that puts every
// edge of the kernel in one model: thresholds at -Inf, -0, +0 and +Inf,
// a default-left and a default-right node on the same feature, a tree
// that is a single leaf, and a chain whose deepest leaf lies 11 levels
// below its shallowest, so the lanes of a group finish far apart.
func edgeModel() *boost.Model {
	inf := float32(math.Inf(1))
	edges := tree.New(0, 0, 1)
	l, r := edges.AddChildren(0, 0, 0, float32(math.Copysign(0, -1)), true, 0)
	ll, lr := edges.AddChildren(l, 0, 0, -inf, false, 0)
	rl, rr := edges.AddChildren(r, 0, 0, inf, true, 0)
	rll, rlr := edges.AddChildren(rl, 1, 0, 0, false, 0)
	for i, id := range []int32{ll, lr, rr, rll, rlr} {
		edges.Nodes[id].Weight = float64(i+1) * 0.125
	}
	stump := tree.New(0, 0, 1)
	stump.Nodes[0].Weight = -0.3
	chain := tree.New(0, 0, 1)
	at := int32(0)
	for depth := 0; depth < 12; depth++ {
		var leaf int32
		leaf, at = chain.AddChildren(at, int32(depth%2), 0, float32(depth), depth%3 == 0, 0)
		chain.Nodes[leaf].Weight = 0.01 * float64(depth+1)
	}
	chain.Nodes[at].Weight = 0.7
	return &boost.Model{Objective: "binary:logistic", BaseScore: 0.1, NumFeatures: 2,
		Trees: []*tree.Tree{edges, stump, chain}}
}

// TestFlatKernelEdges scores the edge model over rows drawn from the
// edge values and NaN, at batch sizes around the lane and block widths
// and from a non-zero lo, and demands Model.Predict's bits.
func TestFlatKernelEdges(t *testing.T) {
	m := edgeModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	flat, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float32{float32(math.NaN()), 2.5, 7, 11.5}, keyEdges...)
	const n = 3*maxBlockRows + 9
	x := dataset.NewDense(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, vals[i%len(vals)])
		x.Set(i, 1, vals[(i/len(vals)+3*i)%len(vals)])
	}
	s := flat.NewScratch()
	out := make([]float64, n)
	for _, lo := range []int{0, 5} {
		for _, size := range []int{1, 7, 8, 9, 63, 64, 65, 129} {
			for i := range out {
				out[i] = -1
			}
			flat.PredictRangeInto(x, lo, lo+size, out, s)
			for i := range out {
				want := -1.0
				if i >= lo && i < lo+size {
					want = m.Predict(x.Row(i))
				}
				if out[i] != want {
					t.Fatalf("lo %d size %d row %d %v: flat %v != walk %v", lo, size, i, x.Row(i), out[i], want)
				}
			}
		}
	}
}

// TestFlatUnknownObjectiveMirrorsRawMargin pins the fallback contract:
// Model.Predict returns the raw margin when the objective name is
// unknown, and the compiled model must do the same.
func TestFlatUnknownObjectiveMirrorsRawMargin(t *testing.T) {
	ds, testX := trainTestData(t, 1200)
	b := engineBuilders(t, ds)["harp"]
	res, err := boost.Train(b, ds, boost.Config{Rounds: 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	m.Objective = "no-such-objective"
	flat, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	s := flat.NewScratch()
	for i := 0; i < testX.N; i++ {
		if got, want := flat.PredictRow(testX.Row(i), s), m.Predict(testX.Row(i)); got != want {
			t.Fatalf("row %d: %v != %v", i, got, want)
		}
	}
}

func blobs3(t *testing.T, n int) (*dataset.Dataset, *dataset.Dense) {
	t.Helper()
	d := dataset.NewDense(n, 2)
	labels := make([]float32, n)
	state := uint64(7)
	next := func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(state>>40) / float32(1<<24)
	}
	centers := [3][2]float32{{0, 0}, {4, 1}, {1, 5}}
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = float32(c)
		d.Set(i, 0, centers[c][0]+next())
		d.Set(i, 1, centers[c][1]+next())
	}
	ds, err := dataset.FromDense("blobs", d, labels, 64)
	if err != nil {
		t.Fatal(err)
	}
	return ds, d
}

// trainBlobs trains a small 3-class softmax ensemble on blobs3 and
// compiles it.
func trainBlobs(t *testing.T, n, treeSize, rounds int) (*boost.MulticlassModel, *Flat, *dataset.Dense) {
	t.Helper()
	ds, raw := blobs3(t, n)
	b, err := core.NewBuilder(core.Config{Mode: core.Sync, K: 8, Growth: grow.Leafwise,
		TreeSize: treeSize, UseMemBuf: true, Params: splitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := boost.TrainMulticlass(b, ds, boost.MulticlassConfig{NumClass: 3, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := CompileMulticlass(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	return res.Model, flat, raw
}

// TestFlatMulticlassBitIdentical proves the multiclass path: the
// compiled model's class probabilities match PredictProba bit for bit,
// including rows with missing values.
func TestFlatMulticlassBitIdentical(t *testing.T) {
	m, flat, raw := trainBlobs(t, 900, 5, 8)
	if flat.NumClass() != 3 {
		t.Fatalf("numClass %d", flat.NumClass())
	}
	raw.SetMissing(5, 1)
	raw.SetMissing(6, 0)
	s := flat.NewScratch()
	out := make([]float64, 3)
	for i := 0; i < raw.N; i++ {
		want := m.PredictProba(raw.Row(i))
		flat.PredictProbaRow(raw.Row(i), s, out)
		for c := range want {
			if out[c] != want[c] {
				t.Fatalf("row %d class %d: %v != %v", i, c, out[c], want[c])
			}
		}
	}
	// The block path: class accumulators k apart inside a lane group,
	// ranges that start and end inside a group and inside a block.
	for _, span := range [][2]int{{0, raw.N}, {3, 4}, {5, 5 + lanes + 1}, {7, 7 + 2*maxBlockRows + 3}} {
		got := make([]float64, raw.N*3)
		flat.PredictRangeInto(raw, span[0], span[1], got, s)
		for i := 0; i < raw.N; i++ {
			want := []float64{0, 0, 0}
			if i >= span[0] && i < span[1] {
				want = m.PredictProba(raw.Row(i))
			}
			for c := range want {
				if got[i*3+c] != want[c] {
					t.Fatalf("rows [%d, %d) row %d class %d: %v != %v", span[0], span[1], i, c, got[i*3+c], want[c])
				}
			}
		}
	}
}

// TestFlatZeroAllocKernel pins the serving hot path at zero allocations
// per batch: with preallocated scratch and output, PredictRangeInto must
// not touch the heap, for a single-margin model and for a multiclass one
// whose batch ends inside a lane group.
func TestFlatZeroAllocKernel(t *testing.T) {
	ds, testX := trainTestData(t, 1500)
	b := engineBuilders(t, ds)["harp"]
	res, err := boost.Train(b, ds, boost.Config{Rounds: 4, Objective: "binary:logistic"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Compile(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	_, mflat, mraw := trainBlobs(t, 301, 5, 3)
	for _, c := range []struct {
		name string
		flat *Flat
		x    *dataset.Dense
	}{{"single", flat, testX}, {"multiclass", mflat, mraw}} {
		s := c.flat.NewScratch()
		out := make([]float64, c.x.N*c.flat.NumClass())
		allocs := testing.AllocsPerRun(10, func() {
			c.flat.PredictRangeInto(c.x, 0, c.x.N, out, s)
		})
		if allocs != 0 {
			t.Errorf("%s: PredictRangeInto allocates %v times per batch, want 0", c.name, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { c.flat.PredictProbaRow(c.x.Row(0), s, out) }); allocs != 0 {
			t.Errorf("%s: PredictProbaRow allocates %v times per row, want 0", c.name, allocs)
		}
	}
}

// TestCompileErrors covers the defensive paths: nil models, corrupt
// multiclass shapes, NaN thresholds, and a multiclass tree (the path
// Model.Validate does not cover) whose child points back at its parent,
// on which the walk would never reach a leaf.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Error("nil model compiled")
	}
	if _, err := CompileMulticlass(nil); err == nil {
		t.Error("nil multiclass model compiled")
	}
	if _, err := CompileMulticlass(&boost.MulticlassModel{NumClass: 3, BaseScores: []float64{0}}); err == nil {
		t.Error("corrupt multiclass model compiled")
	}
	nanTree := tree.New(0, 0, 1)
	nanTree.AddChildren(0, 0, 0, float32(math.NaN()), true, 0)
	bad := &boost.Model{Objective: "binary:logistic", NumFeatures: 1, Trees: []*tree.Tree{nanTree}}
	if _, err := Compile(bad); err == nil {
		t.Error("NaN threshold compiled")
	}
	loop := tree.New(0, 0, 1)
	loop.AddChildren(0, 0, 0, 0.5, false, 0)
	loop.Nodes[1].Left, loop.Nodes[1].Right = 0, 1
	cyclic := &boost.MulticlassModel{NumClass: 2, BaseScores: []float64{0, 0}, NumFeatures: 1,
		Trees: [][]*tree.Tree{{loop, tree.New(0, 0, 1)}}}
	if _, err := CompileMulticlass(cyclic); err == nil {
		t.Error("tree with a child before its parent compiled")
	}
}

// TestFlatAccessors sanity-checks the reporting surface used by the
// service and /progress snapshot.
func TestFlatAccessors(t *testing.T) {
	ds, _ := trainTestData(t, 1000)
	b := engineBuilders(t, ds)["harp"]
	res, err := boost.Train(b, ds, boost.Config{Rounds: 2, Objective: "binary:logistic"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Compile(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumTrees() != 2 {
		t.Fatalf("trees %d", flat.NumTrees())
	}
	if flat.NumNodes() == 0 || flat.Bytes() < 20*flat.NumNodes() {
		t.Fatalf("empty accessors: nodes=%d bytes=%d", flat.NumNodes(), flat.Bytes())
	}
	if err := flat.CheckDense(dataset.NewDense(1, flat.NumFeatures()+1)); err == nil {
		t.Error("shape mismatch accepted")
	}
}
