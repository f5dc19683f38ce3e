package main

import (
	"harpgbdt/internal/core"
	"harpgbdt/internal/synth"
)

// workload is one set of inputs. Every workload runs the same user
// journey — bin the data, train, compile, score a held-out batch, serve
// /predict — so every metric exists on every workload; the shapes differ
// so that a different layer carries each one (see README.md).
type workload struct {
	Name string

	// Population: a fixed synthetic population per workload (the concept
	// is a property of the workload, like a dataset file, generated from
	// populationSeed); -seed draws the train/test split, the row order
	// and the request payloads.
	Spec      synth.Spec
	Features  int // 0 = the family's own width
	TrainRows int
	TestRows  int

	// Engine shape. Everything else is core.DefaultConfig (K=32,
	// fblk=4, nblk=32, MemBuf on — the paper's headline configuration).
	Mode     core.Mode
	TreeSize int
	Rounds   int

	// AUCTarget is the time-to-AUC threshold of the traced run;
	// AUCFloor fails the run when the final test AUC is below it.
	AUCTarget float64
	AUCFloor  float64

	// ReqRows is the row count of one /predict request.
	ReqRows int
	// PredictShare and ServeShare are the parts of -seconds the batch
	// scoring passes and the timed closed loop get. Training is fixed
	// work (Rounds trees), not a share.
	PredictShare float64
	ServeShare   float64
}

// populationSeed generates every workload's population.
const populationSeed = 2019

// workloads lists the benchmark's inputs; BENCHMARK.json and README.md say
// why each exists. Names are final: later issues cite them.
var workloads = []workload{
	{
		Name:      "train-thin",
		Spec:      synth.HiggsLike,
		TrainRows: 400_000, TestRows: 50_000,
		Mode: core.Async, TreeSize: 8, Rounds: 60,
		AUCTarget: 0.726, AUCFloor: 0.715,
		ReqRows: 16, PredictShare: 0.25, ServeShare: 0.7,
	},
	{
		Name:      "train-fat",
		Spec:      synth.YFCCLike,
		TrainRows: 10_000, TestRows: 30_000,
		Mode: core.Sync, TreeSize: 8, Rounds: 24,
		AUCTarget: 0.73, AUCFloor: 0.715,
		ReqRows: 4, PredictShare: 0.25, ServeShare: 0.7,
	},
	{
		Name:      "predict-batch",
		Spec:      synth.HiggsLike,
		TrainRows: 100_000, TestRows: 50_000,
		Mode: core.Async, TreeSize: 10, Rounds: 60,
		AUCTarget: 0.783, AUCFloor: 0.765,
		ReqRows: 16, PredictShare: 0.45, ServeShare: 0.5,
	},
	{
		Name:      "serve-online",
		Spec:      synth.HiggsLike,
		TrainRows: 50_000, TestRows: 50_000,
		Mode: core.Async, TreeSize: 8, Rounds: 20,
		AUCTarget: 0.722, AUCFloor: 0.705,
		ReqRows: 16, PredictShare: 0.15, ServeShare: 0.8,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
