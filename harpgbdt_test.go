package harpgbdt

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestNewBuilderEngines(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: SynSet, Rows: 200, Features: 8, Seed: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for engine, wantName := range map[string]string{
		"":          "harp-ASYNC",
		"harp":      "harp-ASYNC",
		"xgb-depth": "xgb-depth",
		"xgb-leaf":  "xgb-leaf",
		"lightgbm":  "lightgbm",
	} {
		b, err := NewBuilder(Options{Engine: engine}, ds)
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if b.Name() != wantName {
			t.Errorf("engine %q named %q, want %q", engine, b.Name(), wantName)
		}
	}
	for _, engine := range []string{"catboost", "xgb-approx"} {
		if _, err := NewBuilder(Options{Engine: engine}, ds); err == nil {
			t.Fatalf("unknown engine %q accepted", engine)
		}
	}
}

func TestDefaultHarpConfigApplied(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: SynSet, Rows: 100, Features: 4, Seed: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A zero Options must produce the paper's default HarpGBDT (ASYNC,
	// K=32) with default split params, not a zero-valued config.
	b, err := NewBuilder(Options{}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Name(), "ASYNC") {
		t.Fatalf("default engine %q", b.Name())
	}
}

func TestPartialHarpConfigGetsDefaultParams(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: SynSet, Rows: 300, Features: 4, Seed: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Engine: "harp", Harp: HarpConfig{Mode: DP, K: 2, TreeSize: 4}}
	res, err := Train(ds, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With zero SplitParams (λ=γ=0) and no defaulting this would grow very
	// different trees; defaulted λ=γ=1 keeps weights bounded.
	for _, tr := range res.Model.Trees {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEndToEndTrainPredictEval(t *testing.T) {
	train, testX, testY, err := SynthesizeTrainTest(SynthConfig{Spec: AirlineLike, Rows: 5000, Seed: 4}, 1500, 128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(train, Options{
		Engine: "harp",
		Harp:   HarpConfig{Mode: Sync, K: 16, Growth: Leafwise, TreeSize: 6, UseMemBuf: true},
		Boost:  BoostConfig{Rounds: 25, EvalEvery: 25},
	}, testX, testY)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := res.Model.PredictDense(testX)
	if err != nil {
		t.Fatal(err)
	}
	auc := AUC(preds, testY)
	if auc < 0.65 {
		t.Fatalf("airline AUC %f", auc)
	}
	if ll := LogLoss(preds, testY); ll <= 0 || math.IsInf(ll, 0) {
		t.Fatalf("logloss %f", ll)
	}
	if er := ErrorRate(preds, testY); er < 0 || er > 1 {
		t.Fatalf("error rate %f", er)
	}
	// Model round trip through the facade.
	path := filepath.Join(t.TempDir(), "m.json")
	if err := res.Model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Predict(testX.Row(1)) != res.Model.Predict(testX.Row(1)) {
		t.Fatal("facade save/load changed predictions")
	}
}

func TestReadRawHelpers(t *testing.T) {
	lib := "1 0:1.5 2:2\n0 1:3\n"
	x, y, err := ReadLibSVMRaw(strings.NewReader(lib), 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.N != 2 || x.M != 3 || y[0] != 1 {
		t.Fatalf("libsvm raw %dx%d labels %v", x.N, x.M, y)
	}
	if !x.IsMissing(0, 1) {
		t.Fatal("absent entry not missing")
	}
	csv := "1,2.5,3.5\n0,,1\n"
	x2, y2, err := ReadCSVRaw(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if x2.N != 2 || x2.M != 2 || y2[1] != 0 {
		t.Fatalf("csv raw %dx%d labels %v", x2.N, x2.M, y2)
	}
}

func TestStatsFacade(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: YFCCLike, Rows: 500, Features: 64, Seed: 5}, 32)
	if err != nil {
		t.Fatal(err)
	}
	st := Stats(ds)
	if st.N != 500 || st.M != 64 {
		t.Fatalf("stats %+v", st)
	}
	if st.S > 0.5 {
		t.Fatalf("YFCC-like should be sparse: S=%f", st.S)
	}
}

func TestTrainWithExposesReport(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: SynSet, Rows: 2000, Features: 8, Seed: 6}, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(Options{Engine: "harp",
		Harp: HarpConfig{Mode: Sync, K: 8, Growth: Leafwise, TreeSize: 5, Virtual: true, Workers: 8}}, ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainWith(b, ds, BoostConfig{Rounds: 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(b)
	if rep.Workers != 8 || rep.Sched.Regions == 0 {
		t.Fatalf("report %+v", rep)
	}
	if b.Pool().VirtualNanos() == 0 {
		t.Fatal("virtual clock not advanced")
	}
	// Virtual per-tree time should reflect the simulated machine, not the
	// serial execution.
	if res.TrainTime <= 0 {
		t.Fatal("train time missing")
	}
}

func TestFeatureImportanceFacade(t *testing.T) {
	ds, err := Synthesize(SynthConfig{Spec: HiggsLike, Rows: 2000, Seed: 7}, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(ds, Options{Boost: BoostConfig{Rounds: 5}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ImportanceType{ImportanceGain, ImportanceCover, ImportanceFrequency} {
		imp, err := res.Model.FeatureImportance(kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(imp) != ds.NumFeatures() {
			t.Fatalf("%s: %d entries", kind, len(imp))
		}
	}
}
