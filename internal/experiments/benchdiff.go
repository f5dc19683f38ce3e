package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// BenchTolerance configures the structural regression gate. Everything it
// bounds is determined by the configuration up to the ASYNC engine's
// schedule-dependent tie-breaks; nothing it bounds is read off a clock —
// timings are judged by the repo benchmark (benchmark/, `benchmark
// compare`), on real threads.
type BenchTolerance struct {
	// Structural bounds the relative drift of per-tree scheduler counts
	// (regions/tree, tasks/tree). For the ASYNC engine these are not fully
	// deterministic — the barrier-mode warm-up runs until the queue can
	// feed every worker, and that length depends on measured task
	// durations — so the bound must absorb the observed ~±6% wobble while
	// still catching structural regressions (a kernel change doubling the
	// region count).
	Structural float64
	// AUC bounds the absolute drift of the training AUC. Not bit-tight:
	// the ASYNC engine's loose-TopK pop order depends on measured task
	// durations, so equal-gain ties (and hence AUC in the 3rd-4th decimal)
	// are schedule-dependent even on the virtual machine.
	AUC float64
	// Comms bounds the relative drift of the distributed ledger's payload
	// volume (sent bytes). The comparison itself is opt-in: it only runs
	// when the baseline carries a comms section. Message and step counts
	// are analytic (ring hop count x deterministic tree shape), so they
	// must match exactly; byte volume moves with the histogram layout and
	// gets this tolerance.
	Comms float64
}

// DefaultBenchTolerance returns the CI gate's tolerances.
func DefaultBenchTolerance() BenchTolerance {
	return BenchTolerance{Structural: 0.15, AUC: 5e-3, Comms: 0.05}
}

// LoadBenchReport reads a bench JSON report from disk. Decoding is strict:
// a baseline carrying a key BenchReport no longer has (the timing fields
// of older reports) is an error, never a half-compared file.
func LoadBenchReport(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var r BenchReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchdiff: parse %s: %w (refresh the baseline, see EXPERIMENTS.md)", path, err)
	}
	return &r, nil
}

// relDrift returns |cur-base| / |base| (cur vs 0 base counts as infinite
// drift unless both are 0).
func relDrift(base, cur float64) float64 {
	if base == cur {
		return 0
	}
	if base == 0 {
		return math.Inf(1)
	}
	return math.Abs(cur-base) / math.Abs(base)
}

// DiffBench compares a current bench run against the committed baseline
// and returns one human-readable message per violated tolerance (empty =
// gate passes). Config mismatches short-circuit: comparing runs of
// different shapes is meaningless, so the mismatch itself is the failure.
func DiffBench(base, cur *BenchReport, tol BenchTolerance) []string {
	var bad []string
	cfgMismatch := false
	cfg := func(name string, b, c any) {
		if b != c {
			bad = append(bad, fmt.Sprintf("config %s differs: baseline %v, current %v (refresh the baseline, see EXPERIMENTS.md)", name, b, c))
			cfgMismatch = true
		}
	}
	cfg("engine", base.Engine, cur.Engine)
	cfg("dataset", base.Dataset, cur.Dataset)
	cfg("rows", base.Rows, cur.Rows)
	cfg("features", base.Features, cur.Features)
	cfg("rounds", base.Rounds, cur.Rounds)
	cfg("workers", base.Workers, cur.Workers)
	cfg("virtual", base.Virtual, cur.Virtual)
	cfg("dist nodes", base.DistNodes, cur.DistNodes)
	if cfgMismatch {
		return bad
	}

	// Model shape: the leaf count is budget-pinned and must match exactly;
	// the depth of a loose-TopK tree wobbles by one level with the pop
	// schedule, so only a larger drift signals a real change.
	if base.Leaves != cur.Leaves {
		bad = append(bad, fmt.Sprintf("leaves changed: baseline %d, current %d", base.Leaves, cur.Leaves))
	}
	if d := cur.MaxDepth - base.MaxDepth; d > 1 || d < -1 {
		bad = append(bad, fmt.Sprintf("max depth changed: baseline %d, current %d", base.MaxDepth, cur.MaxDepth))
	}
	if d := math.Abs(cur.TrainAUC - base.TrainAUC); d > tol.AUC {
		bad = append(bad, fmt.Sprintf("train AUC drifted %.2e (tolerance %.0e): baseline %.6f, current %.6f", d, tol.AUC, base.TrainAUC, cur.TrainAUC))
	}

	// Structural scheduler counts: deterministic per configuration.
	structural := func(name string, b, c float64) {
		if d := relDrift(b, c); d > tol.Structural {
			bad = append(bad, fmt.Sprintf("%s drifted %.1f%% (tolerance %.1f%%): baseline %.1f, current %.1f", name, 100*d, 100*tol.Structural, b, c))
		}
	}
	structural("regions/tree", base.RegionsPerTree, cur.RegionsPerTree)
	structural("tasks/tree", base.TasksPerTree, cur.TasksPerTree)

	// Distributed comms ledger: opt-in — only compared when the committed
	// baseline carries a comms section. Message and allreduce step counts
	// are analytic given the configuration and the (leaf-pinned) tree
	// shape, so drift there is a communication-pattern change, not noise.
	if base.Comms != nil {
		if cur.Comms == nil {
			bad = append(bad, "comms section missing from current run (baseline has one)")
		} else {
			bt, ct := base.Comms.Totals, cur.Comms.Totals
			if bt.MsgsSent != ct.MsgsSent {
				bad = append(bad, fmt.Sprintf("comms messages changed: baseline %d, current %d", bt.MsgsSent, ct.MsgsSent))
			}
			if bt.Steps != ct.Steps {
				bad = append(bad, fmt.Sprintf("allreduce steps changed: baseline %d, current %d", bt.Steps, ct.Steps))
			}
			if d := relDrift(float64(bt.SentBytes), float64(ct.SentBytes)); d > tol.Comms {
				bad = append(bad, fmt.Sprintf("comms payload drifted %.1f%% (tolerance %.1f%%): baseline %d bytes, current %d bytes",
					100*d, 100*tol.Comms, bt.SentBytes, ct.SentBytes))
			}
		}
	}
	return bad
}

// scaleFor reconstructs the Scale that reproduces a baseline's
// configuration, so the gate always compares like with like.
func scaleFor(base *BenchReport) Scale {
	return Scale{Rows: base.Rows, Rounds: base.Rounds, Workers: base.Workers,
		Seed: base.Seed, RealThreads: !base.Virtual, DistNodes: base.DistNodes}
}

// BenchGate is the CI regression gate: it re-runs the benchmark once at
// the baseline's own scale and diffs the run against the baseline. It
// returns the run and the violations (empty = pass).
func BenchGate(base *BenchReport, tol BenchTolerance) (*BenchReport, []string, error) {
	cur, _, err := Bench(scaleFor(base))
	if err != nil {
		return nil, nil, err
	}
	return cur, DiffBench(base, cur, tol), nil
}
