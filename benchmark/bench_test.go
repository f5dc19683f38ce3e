package main

import (
	"regexp"
	"testing"

	"harpgbdt/internal/core"
)

// toySeconds is the sampling time of a toy run.
const toySeconds = 0.25

// toy shrinks a workload to a fraction of a second: the journey and the
// metric set stay whole, the numbers mean nothing.
func toy(w workload) workload {
	w.TrainRows, w.TestRows, w.Rounds = 3000, 1000, 2
	if w.Features = 28; w.Mode == core.Sync {
		// Still the widest of the four, but a tree's split scan is
		// bin-bound and 512 features cost seconds whatever the rows.
		w.Features = 64
	}
	w.AUCFloor = 0.5
	return w
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestEveryMetricEmittedOnce runs all four workloads at toy scale,
// untraced and traced, and holds the output against BENCHMARK.json:
// every workload there exists here and vice versa, and every metric is
// emitted exactly once with its unit — end-to-end metrics by the
// untraced run, per-layer metrics by the traced run.
func TestEveryMetricEmittedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight toy journeys with live servers; skipped in -short mode")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
	}
	outDir := t.TempDir()
	for _, sw := range spec.Workloads {
		if !nameRE.MatchString(sw.Name) {
			t.Errorf("workload name %q does not match %s", sw.Name, nameRE)
		}
		wl, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", sw.Name)
			continue
		}
		for _, mode := range []struct {
			traced bool
			want   []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res, err := runWorkload(toy(wl), 7, toySeconds, 2, mode.traced, outDir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, mode.traced, err)
			}
			for _, v := range res.Verdicts {
				if !v.OK {
					t.Errorf("%s traced=%v: verdict %s failed: %s", wl.Name, mode.traced, v.Name, v.Detail)
				}
			}
			if attempted, _ := res.totals(); attempted < 1 {
				t.Errorf("%s traced=%v: no operation attempted", wl.Name, mode.traced)
			}
			got := map[string][]metric{}
			for _, m := range res.Metrics {
				got[m.Name] = append(got[m.Name], m)
			}
			for _, want := range mode.want {
				switch ms := got[want.Name]; {
				case len(ms) != 1:
					t.Errorf("%s traced=%v: metric %s emitted %d times, want once", wl.Name, mode.traced, want.Name, len(ms))
				case ms[0].Unit != want.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, mode.traced, want.Name, ms[0].Unit, want.Unit)
				}
				delete(got, want.Name)
			}
			for name := range got {
				t.Errorf("%s traced=%v: metric %s is emitted but not in BENCHMARK.json", wl.Name, mode.traced, name)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the exclusive method of
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
