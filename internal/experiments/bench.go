package experiments

import (
	"encoding/json"
	"os"
	"runtime"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/core"
	"harpgbdt/internal/dist"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/perf"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/synth"
)

// BenchReport is the machine-readable record of one `experiments bench`
// run: the configuration that replays it plus the quantities the run
// determines structurally — model shape, AUC, scheduler counts and the
// analytic comms ledger. It carries nothing read off a clock: the
// structural gate (DiffBench) has no use for it, and timings are judged
// by the repo benchmark (benchmark/), on real threads. The summary table
// Bench prints still shows the run's timings for a human reader.
type BenchReport struct {
	// Date is the run date (YYYY-MM-DD); the caller stamps it (the
	// experiments package itself never reads the clock for results).
	Date string `json:"date"`
	// GoMaxProcs and Workers record the machine and pool width; Virtual is
	// true when the run used the simulated parallel machine.
	GoMaxProcs int  `json:"gomaxprocs"`
	Workers    int  `json:"workers"`
	Virtual    bool `json:"virtual"`
	// Dataset shape. Seed is recorded so the regression gate replays the
	// exact dataset (absent in old baselines = the default seed).
	Dataset  string `json:"dataset"`
	Rows     int    `json:"rows"`
	Features int    `json:"features"`
	Rounds   int    `json:"rounds"`
	Seed     uint64 `json:"seed,omitempty"`
	// Engine is the trainer name (harp-ASYNC etc.).
	Engine string `json:"engine"`
	// DistNodes is the simulated cluster size of a distributed run (0 =
	// single-node engine).
	DistNodes int `json:"dist_nodes,omitempty"`
	// Scheduler counts: parallel regions and tasks per tree.
	RegionsPerTree float64 `json:"regions_per_tree"`
	TasksPerTree   float64 `json:"tasks_per_tree"`
	// Perf is the per-worker wait-state report (present when the run had
	// Scale.Perf set).
	Perf *perf.Report `json:"perf,omitempty"`
	// Comms is the distributed run's message/byte ledger (present when the
	// run had Scale.DistNodes > 0).
	Comms *dist.CommsReport `json:"comms,omitempty"`
	// Model quality and shape, to catch silent correctness regressions.
	TrainAUC float64 `json:"train_auc"`
	Leaves   int     `json:"leaves"`
	MaxDepth int     `json:"max_depth"`
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Bench runs the throughput benchmark: the paper's recommended HarpGBDT
// configuration (ASYNC, K=32, D=8, feature blocks of 4, node blocks of 32,
// MemBuf on) on the Higgs-like dataset. It returns the machine-readable
// report (Date left empty for the caller to stamp) and a printable summary
// table.
func Bench(sc Scale) (*BenchReport, *profile.Table, error) {
	sc = sc.withDefaults()
	ds, err := makeData(sc, synth.HiggsLike)
	if err != nil {
		return nil, nil, err
	}
	// DistNodes selects the simulated-cluster trainer; otherwise the paper's
	// single-node ASYNC engine. Both implement engine.Builder, so the same
	// boost loop and report plumbing drive either.
	var (
		b  engine.Builder
		cb *core.Builder
		dt *dist.Trainer
	)
	if sc.DistNodes > 0 {
		dt, err = dist.NewTrainer(dist.Config{
			Nodes: sc.DistNodes, WorkersPerNode: sc.Workers,
			TreeSize: 8, K: 32, Params: params(),
		}, ds)
		if err != nil {
			return nil, nil, err
		}
		b = dt
	} else {
		cb, err = core.NewBuilder(core.Config{
			Mode: core.Async, K: 32, Growth: grow.Leafwise, TreeSize: 8,
			FeatureBlockSize: 4, NodeBlockSize: 32, UseMemBuf: true,
			Params: params(), Workers: sc.Workers, Virtual: !sc.RealThreads,
			Perf: sc.Perf,
		}, ds)
		if err != nil {
			return nil, nil, err
		}
		b = cb
	}
	spin0 := sched.ReadSpinStats()
	res, err := boost.Train(b, ds, boost.Config{Rounds: sc.Rounds, EvalEvery: sc.Rounds}, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	spin1 := sched.ReadSpinStats()
	rep := res.Report(b)
	r := &BenchReport{
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Workers:        b.Pool().Workers(),
		Virtual:        !sc.RealThreads,
		Dataset:        ds.Name,
		Rows:           ds.NumRows(),
		Features:       ds.NumFeatures(),
		Rounds:         len(res.PerTree),
		Seed:           sc.Seed,
		Engine:         b.Name(),
		RegionsPerTree: perTree(rep.Sched.Regions, rep.Trees),
		TasksPerTree:   perTree(rep.Sched.Tasks, rep.Trees),
		Leaves:         res.TotalLeaves,
		MaxDepth:       res.MaxDepth,
	}
	if cb != nil {
		if acc := cb.Perf(); acc != nil {
			pr := acc.Snapshot()
			r.Perf = &pr
		}
	}
	if dt != nil {
		r.DistNodes = sc.DistNodes
		r.Comms = dt.CommsReport()
	}
	if len(res.History) > 0 {
		r.TrainAUC = res.History[len(res.History)-1].TrainAUC
	}
	// Timings appear in the printed table only, never in the report.
	trainSec := res.TrainTime.Seconds()
	tb := profile.NewTable("Benchmark: "+r.Engine+" on "+r.Dataset, "metric", "value")
	tb.AddRow("rows x rounds", r.Rows*r.Rounds)
	tb.AddRow("train seconds", trainSec)
	tb.AddRow("ms/tree", ms(res.AvgTreeTime()))
	if rowRounds := float64(r.Rows) * float64(r.Rounds); rowRounds > 0 && trainSec > 0 {
		tb.AddRow("rows/sec", rowRounds/trainSec)
		tb.AddRow("ns/row", trainSec*1e9/rowRounds)
	}
	tb.AddRow("utilization", rep.Utilization())
	tb.AddRow("barrier overhead", rep.BarrierOverhead())
	tb.AddRow("spin contended", spin1.ContendedAcquires-spin0.ContendedAcquires)
	tb.AddRow("spin yields", spin1.Yields-spin0.Yields)
	tb.AddRow("train AUC", r.TrainAUC)
	if r.Comms != nil {
		ct := r.Comms.Totals
		tb.AddRow("comms msgs sent", ct.MsgsSent)
		tb.AddRow("comms sent MB", float64(ct.SentBytes)/1e6)
		tb.AddRow("comms retries", ct.Retries)
	}
	return r, tb, nil
}

func perTree(n int64, trees int) float64 {
	if trees <= 0 {
		return 0
	}
	return float64(n) / float64(trees)
}
