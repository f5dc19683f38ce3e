package dist

// Cross-node trace correlation: every simulated cluster node gets its own
// pid group in the Chrome trace (lane "node-N"), its phases are drawn as
// explicit-timestamp spans on the node's virtual clock, and each allreduce
// step emits matched send→recv flow arrows around the ring, so one merged
// trace file shows the whole cluster's timeline — compute skew and retry
// stalls — next to the real-time lanes of the orchestrating process.

import (
	"fmt"

	"harpgbdt/internal/obs"
)

// nodeBasePID is the pid of cluster node 0; obs.DefaultPID (1) stays the
// real process.
const nodeBasePID = 2

func nodePID(node int) int { return node + nodeBasePID }

// nameLanes registers one named pid group per cluster node on the default
// tracer. Latched: runs once, the first time tracing is seen enabled.
func (t *Trainer) nameLanes() {
	if t.named || !obs.TracingEnabled() {
		return
	}
	t.named = true
	for i := 0; i < t.cfg.Nodes; i++ {
		obs.SetProcessName(nodePID(i), fmt.Sprintf("node-%d", i))
	}
}

// advancePhase draws one compute phase (walls[node] nanoseconds per node)
// on each node's lane and advances the virtual clocks. Every node gets a
// span — zero-duration when the measured clock didn't tick —
// so the trace's event structure is deterministic for a given fault
// schedule even though the measured durations are not. Returns the slowest
// node's wall time, which bounds the simulated step.
func (t *Trainer) advancePhase(name string, walls []int64) int64 {
	var maxWall int64
	for node, d := range walls {
		obs.SpanAt("dist-node", name, nodePID(node), 0, t.clock[node], d) //harplint:ignore obshygiene -- forwarding wrapper: every advancePhase caller passes a constant phase name
		t.clock[node] += d
		if d > maxWall {
			maxWall = d
		}
	}
	return maxWall
}

// barrierClock returns the latest virtual time among the nodes — the
// point where a collective step can begin.
func (t *Trainer) barrierClock() int64 {
	var b int64
	for _, c := range t.clock {
		b = max(b, c)
	}
	return b
}

// alignClocks sets every node's clock to base+d (the collective step's
// completion time).
func (t *Trainer) alignClocks(base, d int64) {
	for node := range t.clock {
		t.clock[node] = base + d
	}
}

// traceStall draws the timeout/backoff window of a failing allreduce step
// on every node's lane.
func (t *Trainer) traceStall(base, stall int64) {
	if !obs.TracingEnabled() || stall == 0 {
		return
	}
	for node := 0; node < t.cfg.Nodes; node++ {
		obs.SpanAt("dist-comm", "allreduce-retry", nodePID(node), 0, base, stall)
	}
}

// traceAllreduce draws one completed allreduce step starting at the
// barrier time `base`: a retry-stall span when timeouts/backoff were spent,
// the transfer span itself, and matched send→recv flow arrows from every
// node to its ring successor.
func (t *Trainer) traceAllreduce(base, stall, lat, bytes int64, attempts int) {
	if !obs.TracingEnabled() {
		return
	}
	t.traceStall(base, stall)
	n := t.cfg.Nodes
	for node := 0; node < n; node++ {
		obs.SpanAt("dist-comm", "allreduce", nodePID(node), 0, base+stall, lat,
			obs.Arg{Key: "bytes", Value: bytes}, obs.Arg{Key: "attempts", Value: attempts})
	}
	if n < 2 {
		return
	}
	for node := 0; node < n; node++ {
		succ := (node + 1) % n
		t.flowSeq++
		obs.FlowStartAt("dist-comm", "ghsum", nodePID(node), 0, base+stall, t.flowSeq)
		obs.FlowEndAt("dist-comm", "ghsum", nodePID(succ), 0, base+stall+lat, t.flowSeq)
	}
}
