package baseline

import (
	"math"
	"slices"
	"sort"
	"testing"

	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/tree"
)

// oracle is an exact-greedy split finder over the raw values (XGBoost's
// Algorithm 1 with sparsity-aware default directions), independent of the
// histogram code: gain is Eq. 7, ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) −
// G²/(H+λ)] − γ, and a leaf weighs −G/(H+λ) (Eq. 5).
type oracle struct{ lambda, gamma, minChild float64 }

type oracleSplit struct {
	feature     int
	value       float32
	defaultLeft bool
	gain        float64
}

func (o oracle) term(g, h float64) float64 { return g * g / (h + o.lambda) }

// best returns the best admissible split of rows, if one has positive gain.
// A feature's thresholds are every value it takes anywhere in x (vals[f],
// ascending), so "missing rows alone on one side" is a candidate even when
// the node holds the feature's smallest value nowhere. Candidates are tried
// feature by feature, threshold by threshold, missing rows sent right
// before left; a later candidate wins only on a strictly larger gain. That
// is SplitInfo.Better's tie order (lower feature, then lower bin, then the
// first direction tried): of the thresholds that cut the node alike, the
// lowest wins.
func (o oracle) best(x *dataset.Dense, vals [][]float32, grad gh.Buffer, rows []int) (oracleSplit, bool) {
	var g, h float64
	for _, r := range rows {
		g, h = g+grad[r].G, h+grad[r].H
	}
	best, found := oracleSplit{gain: math.Inf(-1)}, false
	try := func(f int, v float32, left bool, gl, hl float64) {
		gr, hr := g-gl, h-hl
		if hl < o.minChild || hr < o.minChild {
			return
		}
		gain := 0.5*(o.term(gl, hl)+o.term(gr, hr)-o.term(gl+gr, hl+hr)) - o.gamma
		if gain > 0 && gain > best.gain {
			best, found = oracleSplit{f, v, left, gain}, true
		}
	}
	for f := 0; f < x.M; f++ {
		var present []int
		var mg, mh float64
		for _, r := range rows {
			if x.IsMissing(r, f) {
				mg, mh = mg+grad[r].G, mh+grad[r].H
			} else {
				present = append(present, r)
			}
		}
		sort.SliceStable(present, func(a, b int) bool { return x.At(present[a], f) < x.At(present[b], f) })
		var gl, hl float64
		i := 0
		for _, v := range vals[f] {
			for ; i < len(present) && x.At(present[i], f) <= v; i++ {
				gl, hl = gl+grad[present[i]].G, hl+grad[present[i]].H
			}
			try(f, v, false, gl, hl)
			if len(present) < len(rows) {
				try(f, v, true, gl+mg, hl+mh)
			}
		}
	}
	return best, found
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// check walks t and holds every node to the oracle: an internal node must
// carry the oracle's feature, threshold, default direction and gain, a leaf
// its weight, and when the leaf budget was not spent no leaf may have a
// split the oracle would take.
func (o oracle) check(t *testing.T, name string, x *dataset.Dense, grad gh.Buffer, tr *tree.Tree, maxLeaves, depthLimit int) {
	t.Helper()
	vals := make([][]float32, x.M)
	all := make([]int, x.N)
	for i := range all {
		all[i] = i
		for f := range vals {
			if !x.IsMissing(i, f) {
				vals[f] = append(vals[f], x.At(i, f))
			}
		}
	}
	for f := range vals {
		slices.Sort(vals[f])
		vals[f] = slices.Compact(vals[f])
	}
	var walk func(id int32, rows []int)
	walk = func(id int32, rows []int) {
		n := &tr.Nodes[id]
		if int(n.Count) != len(rows) {
			t.Fatalf("%s: node %d counts %d rows, %d reach it", name, id, n.Count, len(rows))
		}
		s, ok := o.best(x, vals, grad, rows)
		if n.IsLeaf() {
			var g, h float64
			for _, r := range rows {
				g, h = g+grad[r].G, h+grad[r].H
			}
			if w := -g / (h + o.lambda); !relClose(n.Weight, w) {
				t.Fatalf("%s: leaf %d weight %v, oracle %v", name, id, n.Weight, w)
			}
			if ok && tr.NumLeaves() < maxLeaves && (depthLimit == 0 || int(n.Depth) < depthLimit) {
				t.Fatalf("%s: leaf %d left unsplit, oracle splits it %+v", name, id, s)
			}
			return
		}
		if !ok || int(n.Feature) != s.feature || n.SplitValue != s.value ||
			n.DefaultLeft != s.defaultLeft || !relClose(n.Gain, s.gain) {
			t.Fatalf("%s: node %d split f%d <= %v (default left %v, gain %v), oracle %+v (found %v)",
				name, id, n.Feature, n.SplitValue, n.DefaultLeft, n.Gain, s, ok)
		}
		var l, r []int
		for _, i := range rows {
			if x.IsMissing(i, s.feature) && s.defaultLeft || !x.IsMissing(i, s.feature) && x.At(i, s.feature) <= s.value {
				l = append(l, i)
			} else {
				r = append(r, i)
			}
		}
		walk(n.Left, l)
		walk(n.Right, r)
	}
	walk(0, all)
}

// TestEnginesMatchExactGreedyOracle: with one bin per distinct value and
// dyadic gradients every histogram sum is exact, so each engine — the four
// harp modes and the three baseline presets — must choose the oracle's
// split at every node. All-zero gradients admit no split at all.
func TestEnginesMatchExactGreedyOracle(t *testing.T) {
	const rows, d = 1200, 6
	distinct := []int{1, 2, 5, 17, 64, 255} // feature 0 is present-or-missing only
	x := dataset.NewDense(rows, len(distinct))
	s := uint64(41)
	for i := 0; i < rows; i++ {
		for f, k := range distinct {
			s = s*6364136223846793005 + 1442695040888963407
			if f != 3 && s>>59 < 3 { // ~9 % missing; feature 3 has none
				x.SetMissing(i, f)
			} else {
				x.Set(i, f, float32(int((s>>33)%uint64(k)))*0.75-3)
			}
		}
	}
	ds, err := dataset.FromDense("oracle", x, make([]float32, rows), dataset.MaxAllowedBins)
	if err != nil {
		t.Fatal(err)
	}
	zero := gh.NewBuffer(rows)
	for i := range zero {
		zero[i] = gh.Pair{G: 0, H: 1}
	}
	for _, o := range []oracle{{1, 1, 1}, {0.5, 0, 0.25}} {
		p := tree.SplitParams{Lambda: o.lambda, Gamma: o.gamma, MinChildWeight: o.minChild}
		harp := func(mode core.Mode, workers int) func() (engine.Builder, error) {
			return func() (engine.Builder, error) {
				cfg := core.DefaultConfig()
				cfg.Mode, cfg.Workers, cfg.TreeSize, cfg.Params = mode, workers, d, p
				return core.NewBuilder(cfg, ds)
			}
		}
		bcfg := func(g grow.Method) Config { return Config{Growth: g, TreeSize: d, Params: p, Workers: 2} }
		for _, e := range []struct {
			name  string
			depth int
			mk    func() (engine.Builder, error)
		}{
			{"harp-DP", 0, harp(core.DP, 2)},
			{"harp-MP", 0, harp(core.MP, 2)},
			{"harp-SYNC", 0, harp(core.Sync, 2)},
			{"harp-ASYNC-w1", 0, harp(core.Async, 1)},
			{"xgb-leaf", 0, func() (engine.Builder, error) { return NewXGBHist(bcfg(grow.Leafwise), ds) }},
			{"xgb-depth", d - 1, func() (engine.Builder, error) { return NewXGBHist(bcfg(grow.Depthwise), ds) }},
			{"lightgbm", 0, func() (engine.Builder, error) { return NewLightGBM(bcfg(grow.Leafwise), ds) }},
		} {
			for gi, grad := range []gh.Buffer{dyadicGradients(rows, 7), zero} {
				b, err := e.mk()
				if err != nil {
					t.Fatal(err)
				}
				tr := mustBuild(t, b, grad).Tree
				if gi == 1 && tr.NumNodes() != 1 {
					t.Fatalf("%s: zero gradients grew %d nodes", e.name, tr.NumNodes())
				}
				o.check(t, e.name, x, grad, tr, 1<<(d-1), e.depth)
			}
		}
	}
}
