package harpgbdt

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark executes the corresponding experiment
// from internal/experiments at a reduced scale and reports its headline
// number as a custom metric; run with -v to print the full paper-style
// tables. cmd/experiments runs the same experiments at arbitrary scale.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig12 -v            # print the Fig 12 table
//	go run ./cmd/experiments -rows 60000 -rounds 5 all

import (
	"strconv"
	"testing"

	"harpgbdt/internal/experiments"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/synth"
)

// benchScale keeps each experiment benchmark to roughly a second per
// iteration.
func benchScale() experiments.Scale {
	return experiments.Scale{Rows: 6000, Rounds: 2, ConvRounds: 10, Seed: 1}
}

// runExperiment executes the named experiment b.N times, printing the
// tables on the first verbose iteration and reporting headline metrics.
func runExperiment(b *testing.B, name string, metric func([]*profileTable) (string, float64)) {
	b.Helper()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(name, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if testing.Verbose() {
				for _, tb := range tables {
					b.Log("\n" + tb.String())
				}
			}
			if metric != nil {
				unit, v := metric(tables)
				b.ReportMetric(v, unit)
			}
		}
	}
}

type profileTable = RunTable

// cell parses a numeric table cell.
func cell(tb *profileTable, row, col int) float64 {
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		return 0
	}
	return v
}

// findRow returns the first row whose leading columns match the given
// values, or -1.
func findRow(tb *profileTable, want ...string) int {
	for i, r := range tb.Rows {
		ok := true
		for j, w := range want {
			if j >= len(r) || r[j] != w {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

func BenchmarkFig04Breakdown(b *testing.B) {
	runExperiment(b, "fig4", func(tbs []*profileTable) (string, float64) {
		// Growth factor of BuildHist from the smallest to the largest tree
		// for xgb-leaf (the paper's exponential-growth finding).
		i := findRow(tbs[0], "xgb-leaf", "D10")
		if i < 0 {
			return "buildhist-growth", 0
		}
		return "buildhist-growth", cell(tbs[0], i, 6)
	})
}

func BenchmarkTable01BaselineProfile(b *testing.B) {
	runExperiment(b, "table1", func(tbs []*profileTable) (string, float64) {
		i := findRow(tbs[0], "xgb-leaf")
		return "regions/tree", cell(tbs[0], i, 3)
	})
}

func BenchmarkTable03DatasetShapes(b *testing.B) {
	runExperiment(b, "table3", nil)
}

func BenchmarkTable05ItemizedOptimizations(b *testing.B) {
	runExperiment(b, "table5", func(tbs []*profileTable) (string, float64) {
		i := findRow(tbs[0], "MP", "D12")
		return "final-ms/tree", cell(tbs[0], i, 7)
	})
}

func BenchmarkTable06HarpProfile(b *testing.B) {
	runExperiment(b, "table6", func(tbs []*profileTable) (string, float64) {
		i := findRow(tbs[0], "harp-leaf-ASYNC")
		return "barrier-%", cell(tbs[0], i, 2)
	})
}

func BenchmarkFig08ConvergenceLeafwise(b *testing.B) {
	runExperiment(b, "fig8", nil)
}

func BenchmarkFig09TopKConvergence(b *testing.B) {
	runExperiment(b, "fig9", nil)
}

func BenchmarkFig10BlockTuning(b *testing.B) {
	runExperiment(b, "fig10", func(tbs []*profileTable) (string, float64) {
		best := 0.0
		for i := range tbs[0].Rows {
			if v := cell(tbs[0], i, 2); v > best {
				best = v
			}
		}
		return "best-mp-speedup", best
	})
}

func BenchmarkFig11ModesOverTreeSize(b *testing.B) {
	runExperiment(b, "fig11", func(tbs []*profileTable) (string, float64) {
		i := findRow(tbs[0], "ASYNC", "D12")
		return "async-d12-ms", cell(tbs[0], i, 2)
	})
}

func BenchmarkFig12TimeOverTreeSize(b *testing.B) {
	runExperiment(b, "fig12", func(tbs []*profileTable) (string, float64) {
		h := findRow(tbs[0], "harpgbdt", "D12")
		x := findRow(tbs[0], "xgb-leaf", "D12")
		if h < 0 || x < 0 {
			return "speedup-d12", 0
		}
		return "speedup-d12", cell(tbs[0], x, 2) / cell(tbs[0], h, 2)
	})
}

func BenchmarkFig13Scaling(b *testing.B) {
	runExperiment(b, "fig13", func(tbs []*profileTable) (string, float64) {
		// Weak-scaling efficiency of harpgbdt at the widest thread count.
		last := -1
		for i, r := range tbs[1].Rows {
			if r[0] == "harpgbdt" {
				last = i
			}
		}
		if last < 0 {
			return "weak-eff-%", 0
		}
		return "weak-eff-%", cell(tbs[1], last, 4)
	})
}

func BenchmarkFig14ConvergenceOverTime(b *testing.B) {
	runExperiment(b, "fig14", nil)
}

func BenchmarkFig15TrainingSpeedup(b *testing.B) {
	runExperiment(b, "fig15", func(tbs []*profileTable) (string, float64) {
		// Average speedup over XGBoost across datasets and tree sizes.
		sum, n := 0.0, 0
		for i := range tbs[0].Rows {
			sum += cell(tbs[0], i, 5)
			n++
		}
		if n == 0 {
			return "avg-speedup-vs-xgb", 0
		}
		return "avg-speedup-vs-xgb", sum / float64(n)
	})
}

func BenchmarkFig16ConvergenceSpeedup(b *testing.B) {
	runExperiment(b, "fig16", nil)
}

// BenchmarkTrainPerTree measures raw per-tree training time of each engine
// on real goroutines (no simulation) — the micro-level complement to the
// experiment benchmarks.
func BenchmarkTrainPerTree(b *testing.B) {
	ds, err := synth.Make(synth.Config{Spec: synth.HiggsLike, Rows: 8000, Seed: 5}, 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, engineName := range []string{"harp", "xgb-depth", "xgb-leaf", "lightgbm"} {
		b.Run(engineName, func(b *testing.B) {
			opts := Options{Engine: engineName,
				Harp:     HarpConfig{Mode: Sync, K: 32, Growth: Leafwise, TreeSize: 8, FeatureBlockSize: 4, NodeBlockSize: 32, UseMemBuf: true},
				Baseline: BaselineConfig{TreeSize: 8},
			}
			builder, err := NewBuilder(opts, ds)
			if err != nil {
				b.Fatal(err)
			}
			grad := gh.NewBuffer(ds.NumRows())
			for i := range grad {
				grad[i] = gh.Pair{G: float64(i%7)*0.25 - 0.75, H: 0.25}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := builder.BuildTree(grad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredict measures prediction latency: the naive pointer walk
// against the compiled serving kernel, single-row and batch, on a small
// model and on the repo benchmark's `predict-batch` shape (D=10 x 60
// leaf-wise trees, ~61k nodes) — the kernel's `go test -bench` handle.
func BenchmarkPredict(b *testing.B) {
	for _, shape := range []struct {
		name                       string
		rows, bins, treeSize, rnds int
	}{
		{"small", 5000, 64, 8, 20},
		{"predict-batch", 100000, 256, 10, 60},
	} {
		b.Run(shape.name, func(b *testing.B) {
			train, testX, _, err := SynthesizeTrainTest(SynthConfig{Spec: HiggsLike, Rows: shape.rows + 2000, Seed: 9}, 2000, shape.bins)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{
				Harp:  HarpConfig{Mode: Async, K: 32, Growth: Leafwise, TreeSize: shape.treeSize, FeatureBlockSize: 4, NodeBlockSize: 32, UseMemBuf: true},
				Boost: BoostConfig{Rounds: shape.rnds},
			}
			res, err := Train(train, opts, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			flat, err := CompileModel(res.Model)
			if err != nil {
				b.Fatal(err)
			}
			row := testX.Row(0)
			scratch := flat.NewScratch()
			out := make([]float64, testX.N)
			b.Run("naive-row", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = res.Model.Predict(row)
				}
			})
			b.Run("flat-row", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = flat.PredictRow(row, scratch)
				}
			})
			b.Run("naive-batch", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for r := 0; r < testX.N; r++ {
						out[r] = res.Model.Predict(testX.Row(r))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*testX.N), "ns/row")
			})
			b.Run("flat-batch", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					flat.PredictRangeInto(testX, 0, testX.N, out, scratch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*testX.N), "ns/row")
			})
		})
	}
}

// BenchmarkAUC measures the evaluation metric itself.
func BenchmarkAUC(b *testing.B) {
	n := 100000
	scores := make([]float64, n)
	labels := make([]float32, n)
	s := uint64(1)
	for i := range scores {
		s = s*6364136223846793005 + 1442695040888963407
		scores[i] = float64(s>>11) / (1 << 53)
		labels[i] = float32(s >> 63)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AUC(scores, labels)
	}
}
