package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func diffBase() *BenchReport {
	return &BenchReport{
		Workers: 32, Virtual: true,
		Dataset: "higgs-like-20000x28", Rows: 20000, Features: 28, Rounds: 3,
		Engine:   "harp-ASYNC",
		TrainAUC: 0.7312, Leaves: 255, MaxDepth: 9,
		RegionsPerTree: 12.3, TasksPerTree: 410,
	}
}

func wantViolation(t *testing.T, bad []string, substr string) {
	t.Helper()
	for _, m := range bad {
		if strings.Contains(m, substr) {
			return
		}
	}
	t.Errorf("no violation mentioning %q in %v", substr, bad)
}

func TestDiffBenchIdenticalPasses(t *testing.T) {
	if bad := DiffBench(diffBase(), diffBase(), DefaultBenchTolerance()); len(bad) != 0 {
		t.Fatalf("identical reports flagged: %v", bad)
	}
}

func TestDiffBenchConfigMismatchShortCircuits(t *testing.T) {
	cur := diffBase()
	cur.Rows = 40000
	cur.Leaves = 1 // would also violate, but config mismatch must short-circuit
	bad := DiffBench(diffBase(), cur, DefaultBenchTolerance())
	if len(bad) != 1 {
		t.Fatalf("want exactly the config violation, got %v", bad)
	}
	wantViolation(t, bad, "refresh the baseline")
}

func TestDiffBenchModelShape(t *testing.T) {
	cur := diffBase()
	cur.Leaves = 240
	wantViolation(t, DiffBench(diffBase(), cur, DefaultBenchTolerance()), "leaves")

	// Loose-TopK depth legitimately wobbles one level with the pop order.
	cur = diffBase()
	cur.MaxDepth = 10
	if bad := DiffBench(diffBase(), cur, DefaultBenchTolerance()); len(bad) != 0 {
		t.Errorf("depth +1 flagged: %v", bad)
	}
	cur.MaxDepth = 11
	wantViolation(t, DiffBench(diffBase(), cur, DefaultBenchTolerance()), "max depth")
}

func TestDiffBenchAUC(t *testing.T) {
	cur := diffBase()
	cur.TrainAUC += 4e-3 // inside the schedule-dependence band
	if bad := DiffBench(diffBase(), cur, DefaultBenchTolerance()); len(bad) != 0 {
		t.Errorf("in-band AUC drift flagged: %v", bad)
	}
	cur.TrainAUC = diffBase().TrainAUC - 6e-3
	wantViolation(t, DiffBench(diffBase(), cur, DefaultBenchTolerance()), "AUC")
}

func TestDiffBenchStructuralCounts(t *testing.T) {
	cur := diffBase()
	cur.RegionsPerTree *= 1.10 // inside the warm-up-length wobble
	if bad := DiffBench(diffBase(), cur, DefaultBenchTolerance()); len(bad) != 0 {
		t.Errorf("10%% structural drift flagged: %v", bad)
	}
	cur.RegionsPerTree = diffBase().RegionsPerTree * 2 // a real structural change
	wantViolation(t, DiffBench(diffBase(), cur, DefaultBenchTolerance()), "regions/tree")
	cur = diffBase()
	cur.TasksPerTree *= 1.5
	wantViolation(t, DiffBench(diffBase(), cur, DefaultBenchTolerance()), "tasks/tree")
}

func TestLoadBenchReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := diffBase()
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad := DiffBench(base, got, DefaultBenchTolerance()); len(bad) != 0 {
		t.Fatalf("round-tripped report differs: %v", bad)
	}
	// Loading is strict: a file the gate cannot compare in full is an
	// error, never a half-compared baseline.
	stale := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(stale, []byte(`{"engine": "harp-ASYNC", "leaves": 255, "ns_per_row": 150}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path, wantErr string }{
		{"missing file", filepath.Join(t.TempDir(), "missing.json"), "missing.json"},
		{"stale timing key", stale, "refresh the baseline"},
	} {
		if _, err := LoadBenchReport(tc.path); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCommittedBaselineLoads: the committed BENCH_baseline.json must pass
// the strict loader (so it holds only keys the gate knows) and describe
// the gate's canonical configuration.
func TestCommittedBaselineLoads(t *testing.T) {
	base, err := LoadBenchReport(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Virtual || base.Workers != 32 || base.Engine != "harp-ASYNC" || base.Leaves == 0 {
		t.Fatalf("committed baseline is not a virtual 32-worker harp-ASYNC run: %+v", base)
	}
}

// TestBenchGateReplaysBaselineScale: the gate must re-run the benchmark at
// the baseline's own configuration (not the caller's), so the diff always
// compares like with like. Tolerance violations are not asserted here —
// gate stability at the committed scale is exercised by `make benchdiff`.
func TestBenchGateReplaysBaselineScale(t *testing.T) {
	base, _, err := Bench(Scale{Rows: 2000, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := BenchGate(base, DefaultBenchTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if best.Rows != base.Rows || best.Rounds != base.Rounds ||
		best.Workers != base.Workers || best.Virtual != base.Virtual {
		t.Fatalf("gate ran at %d rows / %d rounds / %d workers (virtual=%v), baseline %d/%d/%d (virtual=%v)",
			best.Rows, best.Rounds, best.Workers, best.Virtual,
			base.Rows, base.Rounds, base.Workers, base.Virtual)
	}
}
