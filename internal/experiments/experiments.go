// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V) at laptop scale. Each experiment is a pure function
// of a Scale (dataset rows, boosting rounds, worker count, seed) returning
// printable tables, shared between cmd/experiments and the root benchmark
// suite. EXPERIMENTS.md records one run of each alongside the paper's
// numbers.
package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"harpgbdt/internal/baseline"
	"harpgbdt/internal/boost"
	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

// Scale controls experiment size. The zero value selects quick defaults
// suitable for `go test -bench`.
type Scale struct {
	// Rows is the training-set size per dataset (default 20000).
	Rows int
	// Rounds is the number of trees for timing experiments (default 3).
	Rounds int
	// ConvRounds is the number of trees for convergence experiments
	// (default 40).
	ConvRounds int
	// Workers is the parallel width (0 = 32 simulated workers, the paper's
	// thread count, or GOMAXPROCS with RealThreads).
	Workers int
	// RealThreads runs engines on real goroutines instead of the simulated
	// parallel machine. The simulator is the default because it yields
	// deterministic parallel-efficiency measurements on any host, including
	// single-core CI boxes (see sched.NewVirtualPool).
	RealThreads bool
	// Seed makes datasets deterministic.
	Seed uint64
}

func (s Scale) withDefaults() Scale {
	if s.Rows == 0 {
		s.Rows = 20000
	}
	if s.Rounds == 0 {
		s.Rounds = 3
	}
	if s.ConvRounds == 0 {
		s.ConvRounds = 40
	}
	if s.Seed == 0 {
		s.Seed = 2019
	}
	if s.Workers == 0 && !s.RealThreads {
		s.Workers = 32
	}
	return s
}

// params are the paper's fixed training parameters, with γ=0 so trees keep
// growing to the leaf budget at laptop-scale row counts (the paper's γ=1
// assumes 10M+ rows; at 20K rows it would prune everything and the tree-
// size sweeps would be vacuous).
func params() tree.SplitParams {
	return tree.SplitParams{Lambda: 1, Gamma: 0, MinChildWeight: 1}
}

// makeData builds a deterministic synthetic dataset of the given family.
func makeData(sc Scale, spec synth.Spec) (*dataset.Dataset, error) {
	return synth.Make(synth.Config{Spec: spec, Rows: sc.Rows, Seed: sc.Seed}, 256)
}

// makeDataTT builds a train/test split for convergence experiments.
func makeDataTT(sc Scale, spec synth.Spec) (*dataset.Dataset, *dataset.Dense, []float32, error) {
	testRows := sc.Rows / 4
	if testRows > 20000 {
		testRows = 20000
	}
	if testRows < 100 {
		testRows = 100
	}
	return synth.MakeTrainTest(synth.Config{Spec: spec, Rows: sc.Rows, Seed: sc.Seed}, testRows, 256)
}

// measured is one timing measurement of an engine.
type measured struct {
	name    string
	perTree time.Duration
	report  profile.Report
}

// run trains `rounds` trees and returns the per-tree time and the run
// report.
func run(b engine.Builder, ds *dataset.Dataset, rounds int) (measured, error) {
	res, err := boost.Train(b, ds, boost.Config{Rounds: rounds}, nil, nil)
	if err != nil {
		return measured{}, err
	}
	return measured{name: b.Name(), perTree: res.AvgTreeTime(), report: res.Report(b)}, nil
}

// Engine constructor helpers. D is the paper's tree size. All engines run
// on the scale's machine (simulated 32-worker by default).

func newHarp(sc Scale, ds *dataset.Dataset, mode core.Mode, k, d, fb, nb int, memBuf bool) (*core.Builder, error) {
	return core.NewBuilder(core.Config{
		Mode: mode, K: k, Growth: grow.Leafwise, TreeSize: d,
		FeatureBlockSize: fb, NodeBlockSize: nb, UseMemBuf: memBuf,
		Params: params(), Workers: sc.Workers, Virtual: !sc.RealThreads,
	}, ds)
}

// newHarpAuto is the paper's recommended configuration for a tree size and
// input shape: SYNC for small trees, ASYNC for large ones, K=32, node
// blocks of 32, and a feature block width chosen by the matrix shape
// (Sec. V-E/V-F: thin matrices get small blocks, fat matrices get wide
// blocks so the write region stays effective without amplifying gradient
// reads across hundreds of tiny tasks).
func newHarpAuto(sc Scale, ds *dataset.Dataset, d int) (*core.Builder, error) {
	mode := core.Async
	if d <= 8 {
		mode = core.Sync
	}
	m := ds.NumFeatures()
	fb := 4
	switch {
	case m < 8:
		fb = 1
	case m >= 128:
		fb = 16
	}
	return newHarp(sc, ds, mode, 32, d, fb, 32, true)
}

func baselineCfg(sc Scale, g grow.Method, d int) baseline.Config {
	return baseline.Config{Growth: g, TreeSize: d, Params: params(),
		Workers: sc.Workers, Virtual: !sc.RealThreads}
}

func newXGBDepth(sc Scale, ds *dataset.Dataset, d int) (engine.Builder, error) {
	return baseline.NewXGBHist(baselineCfg(sc, grow.Depthwise, d), ds)
}

func newXGBLeaf(sc Scale, ds *dataset.Dataset, d int) (engine.Builder, error) {
	return baseline.NewXGBHist(baselineCfg(sc, grow.Leafwise, d), ds)
}

func newLightGBM(sc Scale, ds *dataset.Dataset, d int) (engine.Builder, error) {
	return baseline.NewLightGBM(baselineCfg(sc, grow.Leafwise, d), ds)
}

// Table is the printable result table type (re-exported for callers that
// otherwise need no profile import).
type Table = profile.Table

// Runner is an experiment entry point.
type Runner func(Scale) ([]*profile.Table, error)

// registry maps experiment names to runners.
var registry = map[string]Runner{
	"table1": Table1,
	"table3": Table3,
	"table5": Table5,
	"table6": Table6,
	"fig4":   Fig4,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,
	"fig16":  Fig16,
	// The ext-* entries are not paper artifacts: ext-dist is the
	// distributed-training future-work extension and ext-ablation the
	// single-switch ablation study (DESIGN.md).
	"ext-dist":     ExtDist,
	"ext-ablation": ExtAblation,
}

// Names lists the registered experiments in stable order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run dispatches an experiment by name.
func Run(name string, sc Scale) ([]*profile.Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(sc)
}

func ratio(base, x time.Duration) float64 {
	if x <= 0 {
		return 0
	}
	return float64(base) / float64(x)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteJSON writes a report (the efficiency sweep's, the comms ledger) as
// indented JSON.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
