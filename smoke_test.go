package harpgbdt

import (
	"testing"
)

// TestSmokeAllEngines trains every engine briefly on a small synthetic
// dataset and checks the models actually learn (test AUC well above
// chance) and produce structurally valid trees.
func TestSmokeAllEngines(t *testing.T) {
	ds, testX, testY, err := SynthesizeTrainTest(SynthConfig{Spec: HiggsLike, Rows: 8000, Seed: 7}, 2000, 64)
	if err != nil {
		t.Fatal(err)
	}
	engines := []Options{
		{Engine: "harp"},
		{Engine: "harp", Harp: HarpConfig{Mode: DP, K: 8, TreeSize: 6, UseMemBuf: true, FeatureBlockSize: 8, NodeBlockSize: 4}},
		{Engine: "harp", Harp: HarpConfig{Mode: MP, K: 8, TreeSize: 6, FeatureBlockSize: 2, NodeBlockSize: 2}},
		{Engine: "harp", Harp: HarpConfig{Mode: Sync, K: 8, TreeSize: 6, UseMemBuf: true, FeatureBlockSize: 4}},
		{Engine: "xgb-depth", Baseline: BaselineConfig{TreeSize: 6}},
		{Engine: "xgb-leaf", Baseline: BaselineConfig{TreeSize: 6}},
		{Engine: "lightgbm", Baseline: BaselineConfig{TreeSize: 6}},
	}
	for _, opts := range engines {
		opts := opts
		opts.Boost = BoostConfig{Rounds: 20, EvalEvery: 20}
		b, err := NewBuilder(opts, ds)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		name := b.Name()
		t.Run(name, func(t *testing.T) {
			res, err := Train(ds, opts, testX, testY)
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range res.Model.Trees {
				if err := tr.Validate(); err != nil {
					t.Fatalf("tree %d invalid: %v", i, err)
				}
			}
			last := res.History[len(res.History)-1]
			t.Logf("%s: trainAUC=%.4f testAUC=%.4f leaves=%d depth=%d time=%v",
				name, last.TrainAUC, last.TestAUC, res.TotalLeaves, res.MaxDepth, res.TrainTime)
			if last.TestAUC < 0.70 {
				t.Errorf("test AUC %.4f too low, model did not learn", last.TestAUC)
			}
		})
	}
}
