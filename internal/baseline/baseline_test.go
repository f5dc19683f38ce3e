package baseline

import (
	"math"
	"testing"

	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

func testDataset(t *testing.T, rows, features int) *dataset.Dataset {
	t.Helper()
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: rows, Features: features, Seed: 123}, 32)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func dyadicGradients(n int, seed uint64) gh.Buffer {
	grad := gh.NewBuffer(n)
	s := seed
	for i := range grad {
		s = s*6364136223846793005 + 1442695040888963407
		g := float64(int64(s>>40)%4097-2048) / 1024
		s = s*6364136223846793005 + 1442695040888963407
		h := float64((s>>40)%1024+64) / 1024
		grad[i] = gh.Pair{G: g, H: h}
	}
	return grad
}

func treesEquivalent(a, b *tree.Tree) bool {
	var eq func(ai, bi int32) bool
	eq = func(ai, bi int32) bool {
		an, bn := a.Nodes[ai], b.Nodes[bi]
		if an.IsLeaf() != bn.IsLeaf() {
			return false
		}
		if an.Count != bn.Count || math.Abs(an.SumG-bn.SumG) > 1e-9 {
			return false
		}
		if an.IsLeaf() {
			return math.Abs(an.Weight-bn.Weight) < 1e-9
		}
		if an.Feature != bn.Feature || an.SplitBin != bn.SplitBin || an.DefaultLeft != bn.DefaultLeft {
			return false
		}
		return eq(an.Left, bn.Left) && eq(an.Right, bn.Right)
	}
	return eq(0, 0)
}

func mustBuild(t *testing.T, b engine.Builder, grad gh.Buffer) *engine.BuiltTree {
	t.Helper()
	bt, err := b.BuildTree(grad)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	return bt
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{TreeSize: 31}).Validate(); err == nil {
		t.Fatal("huge tree size accepted")
	}
	if err := (Config{TreeSize: -1}).Validate(); err == nil {
		t.Fatal("negative tree size accepted")
	}
	if err := (Config{TreeSize: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := NewXGBHist(Config{}, testDataset(t, 100, 4))
	if err != nil {
		t.Fatal(err)
	}
	if b.Config().MaxLeaves() != 128 {
		t.Fatal("default leaf budget")
	}
}

func TestXGBHistNames(t *testing.T) {
	ds := testDataset(t, 100, 4)
	p := tree.DefaultSplitParams()
	d, err := NewXGBHist(Config{Growth: grow.Depthwise, TreeSize: 4, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "xgb-depth" {
		t.Fatalf("name %q", d.Name())
	}
	l, err := NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: 4, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "xgb-leaf" {
		t.Fatalf("name %q", l.Name())
	}
}

func TestEngineGrowthRestrictions(t *testing.T) {
	ds := testDataset(t, 100, 4)
	// LightGBM silently forces leafwise regardless of the configured value.
	lg, err := NewLightGBM(Config{Growth: grow.Depthwise, TreeSize: 4, Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Config().Growth != grow.Leafwise {
		t.Fatal("lightgbm did not force leafwise growth")
	}
}

// TestBaselinesMatchHarpAtEquivalentConfig: the baselines are special
// configurations of the block-parallel design, so with dyadic gradients
// they must grow the exact same trees as HarpGBDT configured equivalently.
func TestBaselinesMatchHarpAtEquivalentConfig(t *testing.T) {
	ds := testDataset(t, 2500, 10)
	grad := dyadicGradients(2500, 77)
	p := tree.DefaultSplitParams()

	harpLeaf, err := core.NewBuilder(core.Config{Mode: core.DP, K: 1, Growth: grow.Leafwise,
		TreeSize: 6, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	harpDepth, err := core.NewBuilder(core.Config{Mode: core.DP, K: 1, Growth: grow.Depthwise,
		TreeSize: 6, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	refLeaf := mustBuild(t, harpLeaf, grad).Tree
	refDepth := mustBuild(t, harpDepth, grad).Tree

	xl, err := NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: 6, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustBuild(t, xl, grad).Tree; !treesEquivalent(refLeaf, got) {
		t.Error("xgb-leaf differs from harp leafwise K=1")
	}
	lg, err := NewLightGBM(Config{TreeSize: 6, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustBuild(t, lg, grad).Tree; !treesEquivalent(refLeaf, got) {
		t.Error("lightgbm differs from harp leafwise K=1")
	}
	xd, err := NewXGBHist(Config{Growth: grow.Depthwise, TreeSize: 6, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustBuild(t, xd, grad).Tree; !treesEquivalent(refDepth, got) {
		t.Error("xgb-depth differs from harp depthwise")
	}
}

func TestBaselineLeafOfConsistency(t *testing.T) {
	ds := testDataset(t, 1500, 6)
	grad := dyadicGradients(1500, 88)
	p := tree.DefaultSplitParams()
	builders := []engine.Builder{}
	if b, err := NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: 5, Params: p}, ds); err == nil {
		builders = append(builders, b)
	}
	if b, err := NewXGBHist(Config{Growth: grow.Depthwise, TreeSize: 5, Params: p}, ds); err == nil {
		builders = append(builders, b)
	}
	if b, err := NewLightGBM(Config{TreeSize: 5, Params: p}, ds); err == nil {
		builders = append(builders, b)
	}
	if len(builders) != 3 {
		t.Fatal("builder construction failed")
	}
	for _, b := range builders {
		bt := mustBuild(t, b, grad)
		for i := 0; i < ds.NumRows(); i += 53 {
			want := bt.Tree.PredictRowBinned(ds.Binned.Row(i))
			if bt.LeafOf[i] != want {
				t.Fatalf("%s: row %d leaf %d, tree walk %d", b.Name(), i, bt.LeafOf[i], want)
			}
		}
	}
}

func TestBaselineRegionCountGrowsWithTree(t *testing.T) {
	// The leaf-by-leaf baselines must show synchronization counts that grow
	// linearly with the node count — the pathology of Fig. 4 / Table I.
	ds := testDataset(t, 3000, 6)
	grad := dyadicGradients(3000, 99)
	p := tree.DefaultSplitParams()
	regions := func(d int) int64 {
		b, err := NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: d, Params: p}, ds)
		if err != nil {
			t.Fatal(err)
		}
		mustBuild(t, b, grad)
		return b.Pool().Stats().Regions
	}
	r5, r7 := regions(5), regions(7)
	// D7 has ~4x the leaves of D5; regions must grow at least 2x.
	if r7 < r5*2 {
		t.Fatalf("regions did not grow with tree size: D5=%d D7=%d", r5, r7)
	}
}

func TestBaselineProfilesPopulated(t *testing.T) {
	ds := testDataset(t, 1000, 6)
	grad := dyadicGradients(1000, 111)
	p := tree.DefaultSplitParams()
	b, err := NewLightGBM(Config{TreeSize: 5, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, b, grad)
	prof := b.Profile()
	if prof.Total() == 0 {
		t.Fatal("no phase time recorded")
	}
	if prof.Nanos(0) == 0 { // BuildHist
		t.Fatal("BuildHist time missing")
	}
}

func TestBaselineRejectsBadGradients(t *testing.T) {
	ds := testDataset(t, 100, 4)
	p := tree.DefaultSplitParams()
	for _, mk := range []func() (engine.Builder, error){
		func() (engine.Builder, error) {
			return NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: 4, Params: p}, ds)
		},
		func() (engine.Builder, error) { return NewLightGBM(Config{TreeSize: 4, Params: p}, ds) },
	} {
		b, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.BuildTree(gh.NewBuffer(7)); err == nil {
			t.Fatalf("%s accepted wrong gradient length", b.Name())
		}
	}
}

func TestBaselinesOnMissingHeavyData(t *testing.T) {
	d := dataset.NewDense(800, 4)
	s := uint64(5)
	for i := 0; i < 800; i++ {
		for f := 0; f < 4; f++ {
			s = s*6364136223846793005 + 1442695040888963407
			if s>>61 < 3 {
				d.SetMissing(i, f)
			} else {
				d.Set(i, f, float32(s>>57))
			}
		}
	}
	ds, err := dataset.FromDense("m", d, make([]float32, 800), 16)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(800, 13)
	p := tree.SplitParams{Lambda: 1, Gamma: 0.01, MinChildWeight: 0.1}
	for _, mk := range []func() (engine.Builder, error){
		func() (engine.Builder, error) {
			return NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: 5, Params: p}, ds)
		},
		func() (engine.Builder, error) { return NewLightGBM(Config{TreeSize: 5, Params: p}, ds) },
	} {
		b, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		bt := mustBuild(t, b, grad)
		for i := 0; i < 800; i += 71 {
			if want := bt.Tree.PredictRowBinned(ds.Binned.Row(i)); bt.LeafOf[i] != want {
				t.Fatalf("%s: routing mismatch at row %d", b.Name(), i)
			}
		}
	}
}

func TestSingleWorkerBaselines(t *testing.T) {
	ds := testDataset(t, 500, 4)
	grad := dyadicGradients(500, 17)
	p := tree.DefaultSplitParams()
	multi, err := NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: 5, Params: p}, ds)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewXGBHist(Config{Growth: grow.Leafwise, TreeSize: 5, Params: p, Workers: 1}, ds)
	if err != nil {
		t.Fatal(err)
	}
	a := mustBuild(t, multi, grad).Tree
	b := mustBuild(t, single, grad).Tree
	if !treesEquivalent(a, b) {
		t.Fatal("worker count changed the tree")
	}
}
