package dist

// Cluster trace tests: a 3-node simulated run must emit one well-formed
// Chrome trace with a distinct, named pid lane per node, matched send→recv
// flow links, and — under injected transient allreduce failures — the
// retry stall on every node's lane. The event *structure* (which events exist
// on which lanes) is deterministic for a given dataset, gradient stream
// and fault schedule, so it is pinned by a golden file of normalized
// event counts; timestamps and durations are measured and are not golden.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"harpgbdt/internal/fault"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// clusterTraceEvents runs a 3-node training round under a fresh tracer and
// returns the decoded trace events.
func clusterTraceEvents(t *testing.T, faultTimes int64) []traceEvent {
	t.Helper()
	ds, err := synth.Make(synth.Config{Spec: synth.SynSet, Rows: 3000, Features: 10, Seed: 31}, 32)
	if err != nil {
		t.Fatal(err)
	}
	grad := dyadicGradients(3000, 41)
	o := obs.NewWith(obs.NewRegistry())
	o.EnableTracing(0)
	obs.SetDefault(o)
	defer obs.SetDefault(nil)
	dt, err := NewTrainer(Config{Nodes: 3, TreeSize: 5, K: 8,
		Params: tree.DefaultSplitParams()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if faultTimes > 0 {
		fault.Enable("dist.allreduce", fault.Fault{Kind: fault.Error, Times: faultTimes})
		defer fault.Reset()
	}
	if _, err := dt.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("cluster trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id"`
	BP   string         `json:"bp"`
	Args map[string]any `json:"args"`
}

// normalizeTrace reduces a trace to its deterministic structure: sorted
// "count ph pid tid name" lines, one per distinct event shape.
func normalizeTrace(events []traceEvent) string {
	counts := map[string]int{}
	for _, ev := range events {
		counts[fmt.Sprintf("%s pid=%d tid=%d %s", ev.Ph, ev.PID, ev.TID, ev.Name)]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%4d  %s\n", counts[k], k)
	}
	return sb.String()
}

func TestClusterTraceGolden(t *testing.T) {
	events := clusterTraceEvents(t, 2) // two deadlines, two retries, no abort
	got := normalizeTrace(events)
	golden := filepath.Join("testdata", "cluster_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dist -run TestClusterTraceGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("cluster trace structure drifted from golden (re-run with -update if intended)\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestClusterTraceLanesAndFlows(t *testing.T) {
	events := clusterTraceEvents(t, 2)
	// One named pid group per node, distinct from the default process.
	procNames := map[int]string{}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.PID] = ev.Args["name"].(string)
		}
	}
	for node := 0; node < 3; node++ {
		want := fmt.Sprintf("node-%d", node)
		if got := procNames[nodePID(node)]; got != want {
			t.Errorf("pid %d named %q, want %q", nodePID(node), got, want)
		}
	}
	// Every flow id must appear exactly once as a send and once as a recv,
	// linking two distinct node pids, with the recv bound to the enclosing
	// slice (bp=e).
	type link struct{ sends, recvs, sendPID, recvPID int }
	flows := map[string]*link{}
	for _, ev := range events {
		switch ev.Ph {
		case "s":
			l := flows[ev.ID]
			if l == nil {
				l = &link{}
				flows[ev.ID] = l
			}
			l.sends++
			l.sendPID = ev.PID
		case "f":
			l := flows[ev.ID]
			if l == nil {
				l = &link{}
				flows[ev.ID] = l
			}
			l.recvs++
			l.recvPID = ev.PID
			if ev.BP != "e" {
				t.Errorf("flow %s recv missing bp=e", ev.ID)
			}
		}
	}
	if len(flows) == 0 {
		t.Fatal("no flow links in cluster trace")
	}
	for id, l := range flows {
		if l.sends != 1 || l.recvs != 1 {
			t.Errorf("flow %s has %d sends, %d recvs, want 1+1", id, l.sends, l.recvs)
		}
		if l.sendPID == l.recvPID {
			t.Errorf("flow %s loops on pid %d", id, l.sendPID)
		}
		for _, pid := range []int{l.sendPID, l.recvPID} {
			if pid < nodeBasePID || pid >= nodeBasePID+3 {
				t.Errorf("flow %s touches non-node pid %d", id, pid)
			}
		}
	}
	// The retried step stalls every node's lane.
	stall := map[int]bool{}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Name == "allreduce-retry" {
			stall[ev.PID] = true
		}
	}
	for node := 0; node < 3; node++ {
		if !stall[nodePID(node)] {
			t.Errorf("retry stall missing from node %d's lane (stalls on %v)", node, stall)
		}
	}
}
