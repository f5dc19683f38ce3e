package harpgbdt

import "testing"

func TestCrossValidateFacade(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: HiggsLike, Rows: 2400, Seed: 8}, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrossValidate(ds, Options{
		Engine: "harp",
		Harp:   HarpConfig{Mode: Sync, K: 8, Growth: Leafwise, TreeSize: 5, UseMemBuf: true},
		Boost:  BoostConfig{Rounds: 8},
	}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAUC) != 3 {
		t.Fatalf("folds %d", len(res.FoldAUC))
	}
	if res.MeanAUC < 0.6 {
		t.Fatalf("cv AUC %f", res.MeanAUC)
	}
}

func TestSubsetDatasetFacade(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: SynSet, Rows: 50, Features: 3, Seed: 9}, 16)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SubsetDataset(ds, []int32{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumRows() != 3 || sub.NumFeatures() != 3 {
		t.Fatalf("subset dims %dx%d", sub.NumRows(), sub.NumFeatures())
	}
}

func TestTrainMulticlassFacade(t *testing.T) {
	// 3 linearly separated classes along one feature.
	n := 900
	d := NewDenseMatrix(n, 2)
	labels := make([]float32, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = float32(c)
		d.Set(i, 0, float32(c)*3+float32(i%7)*0.1)
		d.Set(i, 1, float32(i%13))
	}
	ds, err := NewDataset("mc", d, labels, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainMulticlass(ds, Options{
		Engine: "harp",
		Harp:   HarpConfig{Mode: Sync, K: 4, Growth: Leafwise, TreeSize: 4, UseMemBuf: true},
	}, MulticlassConfig{NumClass: 3, Rounds: 8, EvalEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i += 7 {
		if res.Model.PredictClass(d.Row(i)) == int(labels[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64((n+6)/7); acc < 0.95 {
		t.Fatalf("multiclass accuracy %f", acc)
	}
}
