package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"harpgbdt/internal/grow"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/tree"
)

// TestTracingCoversEngineSpans builds trees in barrier and async modes with
// tracing enabled and checks each trace contains the span taxonomy the
// observability layer promises (tree / phase / block-task, plus per-node
// spans in async mode, on either driver), on the right lanes.
func TestTracingCoversEngineSpans(t *testing.T) {
	ds := testDataset(t, 3000, 12)
	grad := dyadicGradients(ds.NumRows(), 7)
	for _, tc := range []struct {
		mode    Mode
		virtual bool
		want    []string
	}{
		{Sync, false, []string{"tree", "phase", "block-task", "sched"}},
		{Async, false, []string{"tree", "phase", "block-task", "node", "sched"}},
		{Async, true, []string{"tree", "phase", "block-task", "node"}},
	} {
		o := obs.NewWith(obs.NewRegistry())
		o.EnableTracing(0)
		obs.SetDefault(o)
		b, err := NewBuilder(Config{Mode: tc.mode, K: 8, Growth: grow.Leafwise, TreeSize: 6,
			UseMemBuf: true, FeatureBlockSize: 4, NodeBlockSize: 8,
			Params: tree.DefaultSplitParams(), Workers: 2, Virtual: tc.virtual}, ds)
		if err != nil {
			t.Fatal(err)
		}
		_, err = b.BuildTree(grad)
		obs.SetDefault(nil)
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := o.Tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Cat string `json:"cat"`
				Ph  string `json:"ph"`
				TID int    `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("trace not valid JSON: %v", err)
		}
		cats := map[string]int{}
		workerLane := false
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			cats[ev.Cat]++
			if ev.TID > 0 {
				workerLane = true
			}
		}
		for _, want := range tc.want {
			if cats[want] == 0 {
				t.Errorf("%v virtual=%v: no %q spans in trace (got %v)", tc.mode, tc.virtual, want, cats)
			}
		}
		if !workerLane {
			t.Errorf("%v virtual=%v: no spans on worker lanes (tid > 0)", tc.mode, tc.virtual)
		}
	}
}

// TestEngineMetricsAccumulate checks the package-level engine counters move
// when trees are built (they live in the default registry, so this also
// pins the registration names the docs advertise).
func TestEngineMetricsAccumulate(t *testing.T) {
	ds := testDataset(t, 2000, 8)
	grad := dyadicGradients(ds.NumRows(), 3)
	for _, virtual := range []bool{false, true} {
		before := map[string]int64{
			"trees": mTreesBuilt.Value(), "nodes": mNodesSplit.Value(), "rows": mBuildHistRows.Value(),
		}
		tr := buildWith(t, Config{Mode: Async, K: 8, Growth: grow.Leafwise, TreeSize: 5,
			UseMemBuf: true, FeatureBlockSize: 4, NodeBlockSize: 8,
			Params: tree.DefaultSplitParams(), Workers: 2, Virtual: virtual}, ds, grad)
		if d := mTreesBuilt.Value() - before["trees"]; d != 1 {
			t.Errorf("virtual=%v: trees_built_total moved by %d, want 1", virtual, d)
		}
		// Every split is counted once, whether the warm-up batches or the
		// ASYNC region made it.
		if d, want := mNodesSplit.Value()-before["nodes"], int64(tr.NumLeaves()-1); d != want {
			t.Errorf("virtual=%v: nodes_split_total moved by %d, want %d (leaves-1)", virtual, d, want)
		}
		if d := mBuildHistRows.Value() - before["rows"]; d <= 0 {
			t.Errorf("virtual=%v: buildhist_rows_total did not move", virtual)
		}
	}
	var buf bytes.Buffer
	if err := obs.DefaultRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trees_built_total", "queue_depth", "spinmutex_contended_acquires_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("default registry exposition missing %s", want)
		}
	}
}
