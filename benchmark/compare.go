package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the program reads: the
// workload and metric names, and each end-to-end metric's direction and
// regression bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the
// spread printed here is the one an outside harness computes.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is a set's own run-to-run width as a share of its median: the
// interquartile range from four runs up, the full range for two or
// three, unknown (NaN) for one.
func spread(vals []float64) float64 {
	med := median(vals)
	switch {
	case len(vals) < 2 || med == 0:
		return math.NaN()
	case len(vals) < 4:
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(med)
}

// percent formats a share; an unknown one (a single run) as a dash.
func percent(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*v)
}

// samples collects one metric's values over a file's untraced runs of
// one workload.
func (f *resultFile) samples(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareCmd implements `benchmark compare A.json B.json`: one row per
// workload x end-to-end metric, B against the base A, judged by the
// bound BENCHMARK.json fixes for the metric.
func compareCmd(args []string) error {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := readResultFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readResultFile(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Printf("base A = %s (commit %s, W=%d), B = %s (commit %s, W=%d)\n",
		fs.Arg(0), a.Env.Commit, a.Env.Workers, fs.Arg(1), b.Env.Commit, b.Env.Workers)
	fmt.Printf("%-14s %-20s %12s %12s %10s %9s %9s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B vs A", "spread A", "spread B", "bound", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.samples(wl.Name, m.Name), b.samples(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-20s missing (A has %d runs, B has %d)\n", wl.Name, m.Name, len(va), len(vb))
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / math.Abs(ma)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				bad++
			case sa > m.Bound || sb > m.Bound:
				// The sets disagree with themselves by more than the
				// bound: they cannot show the metric held.
				verdict = "unresolved"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-14s %-20s %12.6g %12.6g %+9.2f%% %9s %9s %6.1f%%  %s (n=%d,%d %s)\n",
				wl.Name, m.Name, ma, mb, 100*change, percent(sa), percent(sb), 100*m.Bound, verdict, len(va), len(vb), m.Unit)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved or missing", bad)
	}
	return nil
}
