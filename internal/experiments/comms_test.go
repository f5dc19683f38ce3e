package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"harpgbdt/internal/dist"
)

func TestCommsExperiment(t *testing.T) {
	rep, ledger, tb, err := Comms(Scale{Rows: 3000, Rounds: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DistNodes != DefaultCommsNodes {
		t.Fatalf("DistNodes = %d, want default %d", rep.DistNodes, DefaultCommsNodes)
	}
	if !strings.HasPrefix(rep.Engine, "dist-") {
		t.Fatalf("engine %q, want the dist trainer", rep.Engine)
	}
	if rep.Comms == nil || ledger != rep.Comms {
		t.Fatal("comms section missing or detached from the report")
	}
	if err := ledger.Conserved(); err != nil {
		t.Fatal(err)
	}
	ct := ledger.Totals
	if ct.Nodes != DefaultCommsNodes {
		t.Fatalf("ledger covers %d nodes, want %d: %+v", ct.Nodes, DefaultCommsNodes, ct)
	}
	if ct.Rounds != 2 || ct.Steps == 0 || ct.MsgsSent == 0 || ct.SentBytes == 0 {
		t.Fatalf("empty ledger totals: %+v", ct)
	}
	if ct.SentBytes != ct.FirstSendBytes || ct.RetransmitBytes != 0 || ct.LostBytes != 0 {
		t.Fatalf("fault-free run should be all first-sends: %+v", ct)
	}
	if tb == nil || len(tb.Rows) == 0 {
		t.Fatal("summary table empty")
	}
	// The comms section must survive the JSON round trip the benchdiff gate
	// relies on.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round BenchReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Comms == nil || round.Comms.Totals != ct || round.DistNodes != rep.DistNodes {
		t.Fatal("JSON round-trip dropped the comms section")
	}
}

// distDiffBase is a baseline carrying a comms section, for the opt-in gate.
func distDiffBase() *BenchReport {
	b := diffBase()
	b.Engine = "dist-3nodes"
	b.DistNodes = 3
	b.Comms = &dist.CommsReport{Totals: dist.CommsTotals{
		Nodes: 3, Rounds: 3, Steps: 30,
		MsgsSent: 120, MsgsDelivered: 120,
		SentBytes: 9_000_000, DeliveredBytes: 9_000_000, FirstSendBytes: 9_000_000,
	}}
	return b
}

func TestDiffBenchCommsOptIn(t *testing.T) {
	// Baseline without a comms section never compares comms, even when the
	// current run has one.
	cur := diffBase()
	cur.Comms = distDiffBase().Comms
	if bad := DiffBench(diffBase(), cur, DefaultBenchTolerance()); len(bad) != 0 {
		t.Errorf("comms compared against a baseline without a section: %v", bad)
	}

	if bad := DiffBench(distDiffBase(), distDiffBase(), DefaultBenchTolerance()); len(bad) != 0 {
		t.Fatalf("identical dist reports flagged: %v", bad)
	}
}

func TestDiffBenchCommsViolations(t *testing.T) {
	cur := distDiffBase()
	cur.Comms = nil
	wantViolation(t, DiffBench(distDiffBase(), cur, DefaultBenchTolerance()), "comms section missing")

	cur = distDiffBase()
	cur.Comms.Totals.MsgsSent += 8
	wantViolation(t, DiffBench(distDiffBase(), cur, DefaultBenchTolerance()), "comms messages")

	cur = distDiffBase()
	cur.Comms.Totals.Steps++
	wantViolation(t, DiffBench(distDiffBase(), cur, DefaultBenchTolerance()), "allreduce steps")

	cur = distDiffBase()
	cur.Comms.Totals.SentBytes = 10_000_000 // +11% > 5% tolerance
	wantViolation(t, DiffBench(distDiffBase(), cur, DefaultBenchTolerance()), "comms payload")

	cur = distDiffBase()
	cur.Comms.Totals.SentBytes = 9_200_000 // +2.2% inside tolerance
	if bad := DiffBench(distDiffBase(), cur, DefaultBenchTolerance()); len(bad) != 0 {
		t.Errorf("in-tolerance byte drift flagged: %v", bad)
	}

	// A dist-nodes mismatch is a config mismatch and short-circuits.
	cur = distDiffBase()
	cur.DistNodes = 4
	bad := DiffBench(distDiffBase(), cur, DefaultBenchTolerance())
	wantViolation(t, bad, "dist nodes")
	if len(bad) != 1 {
		t.Errorf("config mismatch did not short-circuit: %v", bad)
	}
}

// TestBenchGateReplaysDistScale: the gate reconstructs DistNodes from the
// baseline, so a dist baseline re-runs on the simulated cluster.
func TestBenchGateReplaysDistScale(t *testing.T) {
	base, _, _, err := Comms(Scale{Rows: 3000, Rounds: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	best, bad, err := BenchGate(base, DefaultBenchTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if best.DistNodes != base.DistNodes || best.Comms == nil {
		t.Fatalf("gate did not replay the dist configuration: %+v", best)
	}
	// The replay is the same deterministic simulation: message and step
	// counts must match the baseline exactly, so the gate stays quiet.
	for _, m := range bad {
		if strings.Contains(m, "comms") || strings.Contains(m, "allreduce steps") {
			t.Errorf("deterministic comms replay flagged: %s", m)
		}
	}
}
