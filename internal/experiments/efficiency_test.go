package experiments

import (
	"path/filepath"
	"testing"
)

// TestEfficiencySweepInvariants runs the full sweep at a reduced scale and
// checks the two properties the reports exist to show: the accounting
// conserves (every worker's state sum matches the wall time within 1%) and
// the ASYNC engine synchronizes less than the barrier-per-level SYNC
// engine. The ordering is asserted on the barrier-region counts
// (perf.Report.DepthSyncs), which the engines' structure fixes, not on the
// barrier share of the time, which rides on measured task durations and
// could invert under an OS preemption spike.
func TestEfficiencySweepInvariants(t *testing.T) {
	// ASYNC runs a barrier-mode warm-up until the grow queue can feed
	// every worker, so on the paper's 32-worker machine a small tree is
	// mostly warm-up and the mode ordering drowns in it; 8 workers keep
	// the warm-up to ~3 levels and the sweep fast.
	rep, tables, err := Efficiency(Scale{Rows: 8000, Rounds: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(effPoints()) {
		t.Fatalf("sweep produced %d runs, want %d", len(rep.Runs), len(effPoints()))
	}
	for _, r := range rep.Runs {
		if ce := r.Report.ConservationError(); ce > 0.01 {
			t.Errorf("%s: conservation error %.2e > 1%%", r.Name, ce)
		}
		if r.Report.WallSeconds <= 0 {
			t.Errorf("%s: empty report", r.Name)
		}
		if r.Report.Workers != rep.Workers {
			t.Errorf("%s: %d workers, sweep header says %d", r.Name, r.Report.Workers, rep.Workers)
		}
	}
	// Per-worker tables for the four table:true modes (+ depth-sync
	// tables where barrier counts exist) plus the summary.
	if len(tables) < 5 {
		t.Errorf("only %d tables rendered", len(tables))
	}
	async, sync := rep.Run("ASYNC"), rep.Run("SYNC")
	if async == nil || sync == nil {
		t.Fatal("sweep missing the ASYNC or SYNC point")
	}
	syncs := func(r *EfficiencyRun) (n int64) {
		for _, c := range r.Report.DepthSyncs {
			n += c
		}
		return n
	}
	if a, s := syncs(async), syncs(sync); a <= 0 || a >= s {
		t.Fatalf("ASYNC ran %d barrier regions, want fewer than SYNC's %d (and some)", a, s)
	}
	if err := WriteJSON(filepath.Join(t.TempDir(), "efficiency.json"), rep); err != nil {
		t.Fatal(err)
	}
}
