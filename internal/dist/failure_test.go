package dist

// Failure-policy tests: the simulated cluster retries failed allreduce
// steps at a visible simulated cost, and a step that exhausts its retries
// aborts training cleanly — LOST bytes in the ledger, a flight dump, and a
// checkpoint that holds the exact fault-free prefix.

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/fault"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

func TestAllreduceRetrySurvivesTransientFailure(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 2000, Features: 8, Seed: 51}, 32)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(2000, 53)
	dt, err := NewTrainer(Config{Nodes: 4, TreeSize: 5, Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Two transient failures: within the retry budget (2), so the step
	// completes, but the retries cost simulated time.
	fault.Enable("dist.allreduce", fault.Fault{Kind: fault.Error, Times: 2})
	defer fault.Reset()
	if _, err := dt.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	if lost := dt.CommsReport().Totals.LostBytes; lost != 0 {
		t.Fatalf("transient failure lost %d bytes", lost)
	}
	if dt.RetryNanos() <= 0 {
		t.Fatal("retries cost no simulated time")
	}
}

// TestAllreduceExhaustedAbortsCleanly is the clean-abort pin: the first
// allreduce step of round 3 fails on every attempt. Training must stop
// with an error after exactly three attempts, leave a readable flight
// dump, keep the round-2 checkpoint byte-identical to a fault-free 2-round
// run, and book one attempt's payload LOST on every node.
func TestAllreduceExhaustedAbortsCleanly(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 2000, Features: 8, Seed: 51}, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 3, TreeSize: 5, K: 8, Params: tree.DefaultSplitParams()}
	defer fault.Reset()

	// The fault-free reference: arm the point so it counts calls but never
	// fires.
	fault.Enable("dist.allreduce", fault.Fault{Kind: fault.Error, After: math.MaxInt64})
	ref, err := NewTrainer(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := boost.Train(ref, ds, boost.Config{Rounds: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := fault.Calls("dist.allreduce")
	fault.Reset()

	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.json")
	obs.ArmFlightRecorder(flightPath, 0)
	defer obs.ArmFlightRecorder("", 0)
	fault.Enable("dist.allreduce", fault.Fault{Kind: fault.Error, After: steps})
	dt, err := NewTrainer(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boost.Train(dt, ds, boost.Config{
		Rounds: 4, CheckpointDir: dir, CheckpointEvery: 1,
	}, nil, nil); err == nil {
		t.Fatal("training survived an allreduce step that failed on every attempt")
	}
	if fired := fault.Fired("dist.allreduce"); fired != 1+maxRetries {
		t.Fatalf("%d attempts failed, want %d (one try and %d retries)", fired, 1+maxRetries, maxRetries)
	}
	if _, err := obs.ReadFlightDump(flightPath); err != nil {
		t.Fatal(err)
	}

	ck, err := boost.LoadCheckpoint(boost.CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refRes.Model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(ck.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint holds %d rounds that differ from the fault-free 2-round model", ck.Round)
	}

	rep := dt.CommsReport()
	if err := rep.Conserved(); err != nil {
		t.Fatal(err)
	}
	// The failing step is round 3's root histogram: one dense histogram.
	payload := int64(dt.layout.TotalBins()) * 16
	for _, nc := range rep.Nodes {
		if nc.LostBytes != payload {
			t.Fatalf("node %d lost %d bytes, want one attempt's payload %d", nc.Node, nc.LostBytes, payload)
		}
	}
}
