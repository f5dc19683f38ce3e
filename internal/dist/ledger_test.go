package dist

// Comms-ledger tests: conservation (sent = delivered + retransmitted +
// lost, per node, in messages and bytes) across clean, transient-failure
// and node-death runs, and the analytic dense-histogram byte check — the
// ledger's first-send volume must be an exact multiple of the binned
// representation's histogram size.

import (
	"sort"
	"strings"
	"testing"

	"harpgbdt/internal/fault"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

func TestLedgerConservation(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 3000, Features: 10, Seed: 31}, 32)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(3000, 41)
	cases := []struct {
		name        string
		faultTimes  int64 // injected allreduce failures (0 = clean run)
		wantAlive   int
		wantRetrans bool
		wantLost    bool
	}{
		{name: "clean", faultTimes: 0, wantAlive: 4},
		{name: "transient", faultTimes: 2, wantAlive: 4, wantRetrans: true},
		{name: "node-death", faultTimes: 4, wantAlive: 3, wantRetrans: true, wantLost: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dt, err := NewTrainer(Config{Nodes: 4, TreeSize: 5, K: 8, FailNode: 1,
				Params: tree.DefaultSplitParams()}, ds)
			if err != nil {
				t.Fatal(err)
			}
			if tc.faultTimes > 0 {
				fault.Enable("dist.allreduce", fault.Fault{Kind: fault.Error, Times: tc.faultTimes})
				defer fault.Reset()
			}
			if _, err := dt.BuildTree(grad); err != nil {
				t.Fatal(err)
			}
			rep := dt.CommsReport()
			if err := rep.Conserved(); err != nil {
				t.Fatal(err)
			}
			if rep.Totals.AliveNodes != tc.wantAlive {
				t.Fatalf("%d nodes alive, want %d", rep.Totals.AliveNodes, tc.wantAlive)
			}
			if got := rep.Totals.RetransmitBytes > 0; got != tc.wantRetrans {
				t.Fatalf("retransmit bytes %d, want >0 = %v", rep.Totals.RetransmitBytes, tc.wantRetrans)
			}
			if got := rep.Totals.LostBytes > 0; got != tc.wantLost {
				t.Fatalf("lost bytes %d, want >0 = %v", rep.Totals.LostBytes, tc.wantLost)
			}
			if tc.wantLost && rep.Totals.Failures != 1 {
				t.Fatalf("failures %d, want 1", rep.Totals.Failures)
			}
			// Totals cross-check the per-node and per-round views.
			if rep.Totals.SentBytes != rep.Totals.DeliveredBytes+rep.Totals.RetransmitBytes+rep.Totals.LostBytes {
				t.Fatal("totals not conserved")
			}
			var roundBytes int64
			for _, r := range rep.Rounds {
				roundBytes += r.Bytes
			}
			if roundBytes != rep.Totals.SentBytes {
				t.Fatalf("round bytes %d != total sent %d", roundBytes, rep.Totals.SentBytes)
			}
			if rep.Totals.Steps == 0 || rep.Totals.StepNanos <= 0 {
				t.Fatalf("steps %d, step nanos %d", rep.Totals.Steps, rep.Totals.StepNanos)
			}
		})
	}
}

// TestLedgerAnalyticBytes: in a fault-free run, every node's first-send
// volume equals its full sent volume, is identical across nodes, and is an
// exact multiple of the dense histogram size derived independently from
// the binned representation (total bins × 16 bytes per GH pair), with the
// multiplier being the number of tree nodes histogrammed.
func TestLedgerAnalyticBytes(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 3000, Features: 10, Seed: 31}, 32)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(3000, 41)
	dt, err := NewTrainer(Config{Nodes: 3, TreeSize: 5, K: 8, Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := dt.BuildTree(grad)
	if err != nil {
		t.Fatal(err)
	}
	rep := dt.CommsReport()
	// Independent dense-histogram size: Σ_features bins × 16B per GH pair.
	var totalBins int
	for f := 0; f < ds.NumFeatures(); f++ {
		totalBins += ds.Cuts.NumBins(f)
	}
	histBytes := int64(totalBins) * 16
	first := rep.Nodes[0].FirstSendBytes
	for _, nc := range rep.Nodes {
		if nc.FirstSendBytes != first || nc.SentBytes != first || nc.DeliveredBytes != first {
			t.Fatalf("fault-free node ledger not uniform: %+v", nc)
		}
	}
	if first == 0 || first%histBytes != 0 {
		t.Fatalf("first-send %d bytes is not a multiple of the dense histogram size %d", first, histBytes)
	}
	entries := first / histBytes
	var internal int64
	for _, n := range bt.Tree.Nodes {
		if !n.IsLeaf() {
			internal++
		}
	}
	if entries < internal || entries > int64(len(bt.Tree.Nodes)) {
		t.Fatalf("%d histogrammed entries outside [%d internal, %d total] tree nodes",
			entries, internal, len(bt.Tree.Nodes))
	}
	if rep.Totals.FirstSendBytes != 3*first {
		t.Fatalf("total first-send %d, want %d", rep.Totals.FirstSendBytes, 3*first)
	}
	// Ring message count: 2(N-1) messages per node per attempt.
	if steps := int64(rep.Totals.Steps); rep.Nodes[0].MsgsSent != steps*2*2 {
		t.Fatalf("node 0 sent %d msgs over %d steps, want %d", rep.Nodes[0].MsgsSent, steps, steps*4)
	}
}

// TestLedgerFinalBatchSendsNothing: the batch that spends the leaf budget
// is the last, and its children stay leaves, so it builds, allreduces and
// scans no histogram. With K=1 that batch is the last split: the ledger's
// first-send volume must be one dense histogram for the root and for each
// splittable child of every other split, and less than counting the last
// split's children too.
func TestLedgerFinalBatchSendsNothing(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 3000, Features: 10, Seed: 31}, 32)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(3000, 41)
	params := tree.DefaultSplitParams()
	dt, err := NewTrainer(Config{Nodes: 3, TreeSize: 5, K: 1, Params: params}, ds)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := dt.BuildTree(grad)
	if err != nil {
		t.Fatal(err)
	}
	tr := bt.Tree
	if tr.NumLeaves() != 16 {
		t.Fatalf("%d leaves; the fixture must fill the budget of 16", tr.NumLeaves())
	}
	// Splits in the order they were made: children ids grow with each one.
	var splits []int32
	for id, n := range tr.Nodes {
		if !n.IsLeaf() {
			splits = append(splits, int32(id))
		}
	}
	sort.Slice(splits, func(i, j int) bool { return tr.Nodes[splits[i]].Left < tr.Nodes[splits[j]].Left })
	histograms := func(splits []int32) int64 {
		n := int64(1) // the root
		for _, id := range splits {
			for _, c := range []int32{tr.Nodes[id].Left, tr.Nodes[id].Right} {
				if k := tr.Nodes[c]; k.Count >= 2 && k.SumH >= 2*params.MinChildWeight {
					n++
				}
			}
		}
		return n
	}
	histBytes := int64(dt.layout.TotalBins()) * 16
	want, all := histograms(splits[:len(splits)-1]), histograms(splits)
	if want >= all {
		t.Fatal("the last split has no splittable child: the fixture tests nothing")
	}
	for _, nc := range dt.CommsReport().Nodes {
		if nc.FirstSendBytes != want*histBytes {
			t.Fatalf("node %d sent %d bytes = %d histograms, want %d (%d with the final batch)",
				nc.Node, nc.FirstSendBytes, nc.FirstSendBytes/histBytes, want, all)
		}
	}
}

// TestLedgerDeadNodeStopsSending: after a node death the survivors keep
// communicating but the dead node's counters freeze.
func TestLedgerDeadNodeStopsSending(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 3000, Features: 10, Seed: 31}, 32)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(3000, 41)
	dt, err := NewTrainer(Config{Nodes: 4, TreeSize: 6, K: 8, FailNode: 1,
		Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable("dist.allreduce", fault.Fault{Kind: fault.Error, Times: 4})
	defer fault.Reset()
	if _, err := dt.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	afterDeath := dt.CommsReport()
	// A second tree: only survivors send.
	if _, err := dt.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	rep := dt.CommsReport()
	if err := rep.Conserved(); err != nil {
		t.Fatal(err)
	}
	if rep.Nodes[1].Alive {
		t.Fatal("node 1 reported alive after death")
	}
	if rep.Nodes[1].SentBytes != afterDeath.Nodes[1].SentBytes {
		t.Fatal("dead node kept sending")
	}
	if rep.Nodes[0].SentBytes <= afterDeath.Nodes[0].SentBytes {
		t.Fatal("survivor stopped sending")
	}
	if rep.Totals.Rounds != 2 || len(rep.Rounds) != 2 {
		t.Fatalf("rounds %d (%d entries), want 2", rep.Totals.Rounds, len(rep.Rounds))
	}
	// The report is a snapshot: the earlier copy must be unchanged.
	if err := afterDeath.Conserved(); err != nil {
		t.Fatal(err)
	}
}

func TestCommsReportTable(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 500, Features: 4, Seed: 55}, 16)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(500, 57)
	dt, err := NewTrainer(Config{Nodes: 2, TreeSize: 4, Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dt.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := dt.CommsReport().WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"node", "total", "retrans", "steps", "virtual clock"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
