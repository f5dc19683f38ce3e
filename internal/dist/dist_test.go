package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/core"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

func dyadicGradients(n int, seed uint64) gh.Buffer {
	grad := gh.NewBuffer(n)
	s := seed
	for i := range grad {
		s = s*6364136223846793005 + 1442695040888963407
		g := float64(int64(s>>40)%4097-2048) / 1024
		s = s*6364136223846793005 + 1442695040888963407
		h := float64((s>>40)%1024+64) / 1024
		grad[i] = gh.Pair{G: g, H: h}
	}
	return grad
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Nodes: -1}).Validate(); err == nil {
		t.Fatal("negative nodes accepted")
	}
	if err := (Config{TreeSize: 31}).Validate(); err == nil {
		t.Fatal("huge tree accepted")
	}
	if err := (Config{BandwidthMBps: -1}).Validate(); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	// A batch size below zero pops the whole queue (grow.Queue.PopBatch),
	// so the tree would outgrow its leaf budget.
	if err := (Config{K: -1}).Validate(); err == nil {
		t.Fatal("negative K accepted")
	}
	if err := (Config{WorkersPerNode: -1}).Validate(); err == nil {
		t.Fatal("negative workers per node accepted")
	}
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 2, Features: 2, Seed: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(Config{Nodes: 8}, ds); err == nil {
		t.Fatal("more nodes than rows accepted")
	}
}

// TestDistributedMatchesSingleNode: histogram allreduce is exact, so the
// distributed tree must equal the single-node tree built from the same
// dyadic gradients.
func TestDistributedMatchesSingleNode(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 3000, Features: 10, Seed: 31}, 32)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(3000, 41)
	params := tree.DefaultSplitParams()
	ref, err := core.NewBuilder(core.Config{Mode: core.Sync, K: 8, Growth: grow.Leafwise,
		TreeSize: 6, Params: params}, ds)
	if err != nil {
		t.Fatal(err)
	}
	refBT, err := ref.BuildTree(grad)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 7} {
		dt, err := NewTrainer(Config{Nodes: nodes, TreeSize: 6, K: 8, Params: params}, ds)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := dt.BuildTree(grad)
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.Tree.Validate(); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !treesEquivalent(refBT.Tree, bt.Tree) {
			t.Errorf("nodes=%d: distributed tree differs from single-node tree", nodes)
		}
		// Every row assigned to a leaf that the tree walk confirms.
		for i := 0; i < ds.NumRows(); i += 97 {
			if want := bt.Tree.PredictRowBinned(ds.Binned.Row(i)); bt.LeafOf[i] != want {
				t.Fatalf("nodes=%d: row %d routed to %d, want %d", nodes, i, bt.LeafOf[i], want)
			}
		}
	}
}

func treesEquivalent(a, b *tree.Tree) bool {
	var eq func(ai, bi int32) bool
	eq = func(ai, bi int32) bool {
		an, bn := a.Nodes[ai], b.Nodes[bi]
		if an.IsLeaf() != bn.IsLeaf() {
			return false
		}
		if an.Count != bn.Count || math.Abs(an.SumG-bn.SumG) > 1e-9 {
			return false
		}
		if an.IsLeaf() {
			return math.Abs(an.Weight-bn.Weight) < 1e-9
		}
		if an.Feature != bn.Feature || an.SplitBin != bn.SplitBin {
			return false
		}
		return eq(an.Left, bn.Left) && eq(an.Right, bn.Right)
	}
	return eq(0, 0)
}

func TestCommunicationCostGrowsWithNodes(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 4000, Features: 16, Seed: 33}, 64)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(4000, 43)
	comm := func(nodes int) int64 {
		dt, err := NewTrainer(Config{Nodes: nodes, TreeSize: 6, Params: tree.DefaultSplitParams()}, ds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dt.BuildTree(grad); err != nil {
			t.Fatal(err)
		}
		return dt.CommNanos()
	}
	c1, c2, c8 := comm(1), comm(2), comm(8)
	if c1 != 0 {
		t.Fatalf("single node has communication cost %d", c1)
	}
	if !(c8 > c2 && c2 > 0) {
		t.Fatalf("communication cost not increasing: 2 nodes %d, 8 nodes %d", c2, c8)
	}
}

func TestSlowNetworkDominates(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 4000, Features: 16, Seed: 35}, 64)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(4000, 45)
	vtime := func(bw float64) int64 {
		dt, err := NewTrainer(Config{Nodes: 4, TreeSize: 6, BandwidthMBps: bw,
			Params: tree.DefaultSplitParams()}, ds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dt.BuildTree(grad); err != nil {
			t.Fatal(err)
		}
		return dt.Pool().VirtualNanos()
	}
	fast := vtime(10000)
	slow := vtime(10)
	if slow <= fast {
		t.Fatalf("slow network not slower: %d vs %d", slow, fast)
	}
}

func TestDistributedBoosting(t *testing.T) {
	ds, testX, testY, err := synth.MakeTrainTest(synth.Config{Spec: synth.HiggsLike, Rows: 5000, Seed: 37}, 1500, 64)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := NewTrainer(Config{Nodes: 4, TreeSize: 6, Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := boost.Train(dt, ds, boost.Config{Rounds: 20, EvalEvery: 20}, testX, testY)
	if err != nil {
		t.Fatal(err)
	}
	if auc := res.History[len(res.History)-1].TestAUC; auc < 0.65 {
		t.Fatalf("distributed boosting AUC %f", auc)
	}
	if dt.Name() != "dist-4nodes" {
		t.Fatalf("name %q", dt.Name())
	}
	if dt.Profile().Total() == 0 {
		t.Fatal("profile empty")
	}
}

func TestBadGradients(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 100, Features: 4, Seed: 39}, 16)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := NewTrainer(Config{Nodes: 2, TreeSize: 4, Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dt.BuildTree(gh.NewBuffer(5)); err == nil {
		t.Fatal("wrong gradient length accepted")
	}
}

// TestResumeRejectsClusterSizeMismatch: a checkpoint written by a 3-node
// cluster refuses to resume on a 4-node cluster (and on a matching cluster
// the resumed run finishes identical to the uninterrupted one).
func TestResumeRejectsClusterSizeMismatch(t *testing.T) {
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 2000, Features: 8, Seed: 51}, 32)
	if err != nil {
		t.Fatal(err)
	}
	clusterConfig := func(nodes int) Config {
		return Config{Nodes: nodes, TreeSize: 5, K: 8, Params: tree.DefaultSplitParams()}
	}
	dir := t.TempDir()
	dt, err := NewTrainer(clusterConfig(3), ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boost.Train(dt, ds, boost.Config{
		Rounds: 3, CheckpointDir: dir, CheckpointEvery: 1,
	}, nil, nil); err != nil {
		t.Fatal(err)
	}

	wrong, err := NewTrainer(clusterConfig(4), ds)
	if err != nil {
		t.Fatal(err)
	}
	_, err = boost.Train(wrong, ds, boost.Config{
		Rounds: 6, CheckpointDir: dir, Resume: true,
	}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "3-node cluster, resuming with 4") {
		t.Fatalf("want cluster-size mismatch error, got %v", err)
	}

	// Positive control: resuming with the matching cluster size finishes
	// with the exact model of an uninterrupted 6-round run.
	same, err := NewTrainer(clusterConfig(3), ds)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := boost.Train(same, ds, boost.Config{
		Rounds: 6, CheckpointDir: dir, Resume: true,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewTrainer(clusterConfig(3), ds)
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := boost.Train(full, ds, boost.Config{Rounds: 6}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fullRes.Model)
	got, _ := json.Marshal(resumed.Model)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed cluster model differs from uninterrupted run")
	}
}
