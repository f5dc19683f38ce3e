package experiments

import (
	"encoding/json"
	"regexp"
	"testing"
)

func TestBenchReport(t *testing.T) {
	rep, tb, err := Bench(Scale{Rows: 2000, Rounds: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 2000 || rep.Rounds != 2 || rep.Dataset != "higgs" {
		t.Fatalf("report shape %+v", rep)
	}
	if rep.RegionsPerTree <= 0 || rep.TasksPerTree <= 0 || rep.Leaves <= 0 {
		t.Fatalf("structural counts not positive: %+v", rep)
	}
	if rep.TrainAUC <= 0.5 {
		t.Fatalf("train AUC %f, want > 0.5", rep.TrainAUC)
	}
	if rep.Workers != 32 || !rep.Virtual {
		t.Fatalf("default scale should use the 32-worker virtual machine: %+v", rep)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	// The report is what gets committed as a baseline: nothing in it may
	// be read off a clock.
	if m := regexp.MustCompile(`"(ns_per|\w*(seconds|per_sec|ms_per|utilization|overhead|fraction|spin))\w*":`).Find(data); m != nil {
		t.Fatalf("report carries a clock-derived key (%s): %s", m, data)
	}
	var round BenchReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.TasksPerTree != rep.TasksPerTree {
		t.Fatal("JSON round-trip changed tasks_per_tree")
	}
	if tb == nil || len(tb.Rows) == 0 {
		t.Fatal("summary table empty")
	}
}
