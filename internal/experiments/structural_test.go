package experiments

import (
	"math"
	"testing"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/core"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/synth"
)

// structure is what one training run determines on the virtual machine:
// model shape, train AUC and the scheduler's counts per tree. Nothing in
// it is read off a clock.
type structure struct {
	leaves, depth  int
	regions, tasks float64 // per tree
	auc            float64
}

// structuralRun trains the paper's recommended configuration (K=32, D=8,
// feature blocks of 4, node blocks of 32, MemBuf on) in one mode on the
// Higgs-like dataset, on the 32-worker virtual machine.
func structuralRun(t *testing.T, mode core.Mode, rows, rounds int) structure {
	t.Helper()
	sc := Scale{Rows: rows, Rounds: rounds}.withDefaults()
	ds, err := makeData(sc, synth.HiggsLike)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBuilder(core.Config{
		Mode: mode, K: 32, Growth: grow.Leafwise, TreeSize: 8,
		FeatureBlockSize: 4, NodeBlockSize: 32, UseMemBuf: true,
		Params: params(), Workers: sc.Workers, Virtual: true,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := boost.Train(b, ds, boost.Config{Rounds: rounds, EvalEvery: rounds}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := b.Pool().Stats()
	return structure{
		leaves:  res.TotalLeaves,
		depth:   res.MaxDepth,
		regions: float64(st.Regions) / float64(rounds),
		tasks:   float64(st.Tasks) / float64(rounds),
		auc:     res.History[len(res.History)-1].TrainAUC,
	}
}

// TestStructuralBaseline pins the paper's structural claim — block-based
// parallelism cuts the parallel regions per tree (Table VI against
// Table I) — on the virtual 32-worker machine, HIGGS-like data, seed 2019,
// 5 rounds. DP, MP and SYNC are deterministic there: every count must
// match exactly. ASYNC's pop order and barrier-mode warm-up depend on
// measured task durations, so it gets calibrated bands: depth ±1, AUC
// ±5e-3 and regions/tree, tasks/tree ±15 % — wide enough for the observed
// wobble (24.2–25.4 regions, 1007–1097 tasks, plain and under -race),
// narrow enough that one extra region per expanded node fails. ASYNC
// stays at 100k rows: at 20k its AUC moves by more than the band.
//
// A change that moves these counts on purpose re-takes the values here,
// with the change.
func TestStructuralBaseline(t *testing.T) {
	for _, tc := range []struct {
		mode core.Mode
		rows int
		want structure
		// banded selects ASYNC's calibrated bands over exact counts.
		banded bool
	}{
		{core.DP, 20000, structure{640, 9, 34.0, 2392.4, 0.846063}, false},
		{core.MP, 20000, structure{640, 9, 25.2, 1010.6, 0.846062}, false},
		{core.Sync, 20000, structure{640, 9, 29.2, 1480.6, 0.846063}, false},
		{core.Async, 100000, structure{640, 10, 24.8, 1052, 0.74849}, true},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			t.Parallel()
			got, want := structuralRun(t, tc.mode, tc.rows, 5), tc.want
			t.Logf("leaves %d, depth %d, regions/tree %.1f, tasks/tree %.1f, train AUC %.6f",
				got.leaves, got.depth, got.regions, got.tasks, got.auc)
			if got.leaves != want.leaves {
				t.Errorf("leaves %d, want %d", got.leaves, want.leaves)
			}
			if d := math.Abs(got.auc - want.auc); d > 5e-3 {
				t.Errorf("train AUC %.6f drifted %.1e from %.6f (tolerance 5e-3)", got.auc, d, want.auc)
			}
			depthTol, countTol := 0, 0.0
			if tc.banded {
				depthTol, countTol = 1, 0.15
			}
			if d := got.depth - want.depth; d > depthTol || d < -depthTol {
				t.Errorf("max depth %d, want %d ± %d", got.depth, want.depth, depthTol)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"regions/tree", got.regions, want.regions}, {"tasks/tree", got.tasks, want.tasks}} {
				if math.Abs(c.got-c.want) > countTol*c.want+1e-9 {
					t.Errorf("%s %.1f, want %.1f ± %.0f%%", c.name, c.got, c.want, 100*countTol)
				}
			}
		})
	}
}
