package experiments

import (
	"fmt"

	"harpgbdt/internal/core"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/perf"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/synth"
)

// EfficiencyRun is one configuration point of the parallel-efficiency
// sweep: the engine configuration, its headline timing, and the full
// per-worker wait-state report.
type EfficiencyRun struct {
	Name         string      `json:"name"`
	Mode         string      `json:"mode"`
	K            int         `json:"k"`
	FeatureBlock int         `json:"feature_block"`
	NodeBlock    int         `json:"node_block"`
	MsPerTree    float64     `json:"ms_per_tree"`
	Report       perf.Report `json:"report"`
}

// EfficiencyReport is the machine-readable output of the efficiency
// experiment: the run matrix a dashboard (or the CI artifact diff) can
// consume without re-parsing tables.
type EfficiencyReport struct {
	Workers int             `json:"workers"`
	Virtual bool            `json:"virtual"`
	Dataset string          `json:"dataset"`
	Rows    int             `json:"rows"`
	Rounds  int             `json:"rounds"`
	Runs    []EfficiencyRun `json:"runs"`
}

// Run returns the named run (nil when absent).
func (r *EfficiencyReport) Run(name string) *EfficiencyRun {
	for i := range r.Runs {
		if r.Runs[i].Name == name {
			return &r.Runs[i]
		}
	}
	return nil
}

// effPoint is one sweep configuration.
type effPoint struct {
	name string
	mode core.Mode
	k    int
	fb   int
	nb   int
	// table requests the full per-worker table in the printed output (the
	// summary row appears for every point).
	table bool
}

// effPoints is the sweep matrix: the four parallel modes at the paper's
// recommended block shape, plus a TopK sweep for ASYNC (queue pressure)
// and a feature-block sweep for SYNC (task granularity).
func effPoints() []effPoint {
	return []effPoint{
		{name: "DP", mode: core.DP, k: 32, fb: 4, nb: 32, table: true},
		{name: "MP", mode: core.MP, k: 32, fb: 4, nb: 32, table: true},
		{name: "SYNC", mode: core.Sync, k: 32, fb: 4, nb: 32, table: true},
		{name: "ASYNC", mode: core.Async, k: 32, fb: 4, nb: 32, table: true},
		{name: "ASYNC-K1", mode: core.Async, k: 1, fb: 4, nb: 32},
		{name: "ASYNC-K8", mode: core.Async, k: 8, fb: 4, nb: 32},
		{name: "ASYNC-K128", mode: core.Async, k: 128, fb: 4, nb: 32},
		{name: "SYNC-FB1", mode: core.Sync, k: 32, fb: 1, nb: 32},
		{name: "SYNC-FB16", mode: core.Sync, k: 32, fb: 16, nb: 32},
	}
}

// Efficiency runs the parallel-efficiency sweep: every point trains the
// same trees with the wait-state profiler attached, and the result is the
// per-worker efficiency breakdown across {DP, MP, SYNC, ASYNC} x TopK x
// block shape — the software reproduction of the paper's VTune comparison
// (Figs. 4, 7-8) that the `efficiency` subcommand writes as JSON for the
// CI artifacts.
func Efficiency(sc Scale) (*EfficiencyReport, []*profile.Table, error) {
	sc = sc.withDefaults()
	ds, err := makeData(sc, synth.HiggsLike)
	if err != nil {
		return nil, nil, err
	}
	rep := &EfficiencyReport{
		Virtual: !sc.RealThreads,
		Dataset: ds.Name,
		Rows:    ds.NumRows(),
		Rounds:  sc.Rounds,
	}
	summary := profile.NewTable("Parallel efficiency: per-mode summary",
		"config", "ms/tree", "eff_par", "imbalance", "work%", "barrier%", "spin%", "queue%", "idle%", "conserve%")
	var tables []*profile.Table
	for _, pt := range effPoints() {
		b, err := core.NewBuilder(core.Config{
			Mode: pt.mode, K: pt.k, Growth: grow.Leafwise, TreeSize: 8,
			FeatureBlockSize: pt.fb, NodeBlockSize: pt.nb, UseMemBuf: true,
			Params: params(), Workers: sc.Workers, Virtual: !sc.RealThreads,
			Perf: true,
		}, ds)
		if err != nil {
			return nil, nil, fmt.Errorf("efficiency %s: %w", pt.name, err)
		}
		m, err := run(b, ds, sc.Rounds)
		if err != nil {
			return nil, nil, fmt.Errorf("efficiency %s: %w", pt.name, err)
		}
		pr := b.Perf().Snapshot()
		rep.Workers = b.Pool().Workers()
		rep.Runs = append(rep.Runs, EfficiencyRun{
			Name: pt.name, Mode: pt.mode.String(), K: pt.k,
			FeatureBlock: pt.fb, NodeBlock: pt.nb,
			MsPerTree: ms(m.perTree), Report: pr,
		})
		share := func(s perf.State) string {
			return fmt.Sprintf("%.1f%%", 100*pr.StateShares[s.String()])
		}
		summary.AddRow(pt.name, ms(m.perTree), pr.EffectiveParallelism, pr.LoadImbalance,
			share(perf.Work), share(perf.BarrierWait), share(perf.SpinWait),
			share(perf.QueueWait), share(perf.Idle),
			fmt.Sprintf("%.3f%%", 100*pr.ConservationError()))
		if pt.table {
			tables = append(tables, profile.EfficiencyTable("Per-worker breakdown: "+pt.name, pr))
			if dt := profile.DepthSyncTable("Barrier regions per depth: "+pt.name, pr); dt != nil {
				tables = append(tables, dt)
			}
		}
	}
	tables = append(tables, summary)
	return rep, tables, nil
}
