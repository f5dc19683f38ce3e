package core

import (
	"sync/atomic"
	"testing"
	"time"

	"harpgbdt/internal/perf"
)

// perfCheckConfig is schedCheckConfig with the wait-state profiler
// attached.
func perfCheckConfig(workers int) Config {
	c := schedCheckConfig(workers)
	c.Perf = true
	return c
}

// burnFor spins CPU for roughly d; sleeping would park the goroutine and
// make straggler shapes depend on the Go scheduler's wake-up latency.
func burnFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// TestAsyncPerfConservation drives the real ASYNC worker loop through
// seeded Choreo interleavings and asserts the profiler's core invariant
// on each: every worker's state sum equals the accounted wall time
// (within the reports' 1% clock-skew budget), with the Work time further
// conserved across the phase breakdown.
func TestAsyncPerfConservation(t *testing.T) {
	const workers = 3
	ds := testDataset(t, 600, 6)
	grad := dyadicGradients(600, 5)
	for seed := uint64(1); seed <= 5; seed++ {
		b, err := NewBuilder(perfCheckConfig(workers), ds)
		if err != nil {
			t.Fatal(err)
		}
		buildUnderSchedule(t, workers, seed, grad, b)
		r := b.Perf().Snapshot()
		if r.WallSeconds <= 0 {
			t.Fatalf("seed %d: nothing accounted", seed)
		}
		if err := r.ConservationError(); err > 0.01 {
			t.Errorf("seed %d: conservation error %.2e > 1%% (worker sums %v, wall %g)",
				seed, err, r.WorkerSeconds, r.WallSeconds)
		}
		for w := 0; w < workers; w++ {
			var phase float64
			for p := perf.Phase(0); p < perf.NumPhases; p++ {
				phase += float64(b.Perf().PhaseNanos(w, p))
			}
			work := float64(b.Perf().StateNanos(w, perf.Work))
			if work > 0 && (phase < 0.999*work || phase > 1.001*work) {
				t.Errorf("seed %d: worker %d phase sum %g != work %g", seed, w, phase, work)
			}
		}
		if r.Counters["async_nodes_total"] == 0 {
			t.Errorf("seed %d: no ASYNC nodes counted", seed)
		}
	}
}

// TestAsyncVirtualPerfConservation: on the simulated machine the
// accounting is exact by construction — every region (barrier warm-up
// and the ASYNC discrete-event simulation alike) attributes precisely its
// wall span to every worker.
func TestAsyncVirtualPerfConservation(t *testing.T) {
	ds := testDataset(t, 1500, 6)
	grad := dyadicGradients(1500, 3)
	cfg := Config{
		Mode: Async, K: 8, Growth: schedCheckConfig(1).Growth, TreeSize: 10,
		MaxDepth: 6, Params: schedCheckConfig(1).Params,
		Workers: 8, Virtual: true, Perf: true,
	}
	b, err := NewBuilder(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	r := b.Perf().Snapshot()
	if r.WallSeconds <= 0 {
		t.Fatal("nothing accounted")
	}
	if err := r.ConservationError(); err > 1e-6 {
		t.Errorf("virtual conservation error %.2e, want exact (worker sums %v, wall %g)",
			err, r.WorkerSeconds, r.WallSeconds)
	}
	if r.Counters["async_nodes_total"] == 0 {
		t.Error("no simulated ASYNC nodes counted")
	}
	var queue float64
	for _, v := range r.StateSeconds[perf.QueueWait.String()] {
		queue += v
	}
	var spin float64
	for _, v := range r.StateSeconds[perf.SpinWait.String()] {
		spin += v
	}
	if spin <= 0 {
		t.Error("simulated ASYNC charged no SpinWait (cost model lock price missing)")
	}
	_ = queue // queue wait may legitimately be zero when candidates always outnumber workers
}

// TestAsyncStragglerShowsImbalance forces one worker to burn extra CPU
// after every node claim and asserts the profiler sees it. The straggler
// is whichever worker claims a node first — on a single-core machine a
// fixed worker index may never be scheduled into the claim race at all —
// and the assertions are on the ledger per claim, so they do not depend on
// how the claim race then divides the nodes: the burn happens in the Work
// state, so the straggler's Work is at least its own claims times the
// burn, and its Work per claim stands well above the other workers'. (The
// wall-clock forms of the same statements — "the straggler has the most
// Work", "max over mean Work >= 1.3" — fail whenever the other workers,
// which keep claiming while the straggler burns, end up with as much Work
// in total.) The burn is long against a node of this dataset even under
// the race detector with the harpdebug checks on, where three workers on
// two cores book a millisecond or two of Work per claim.
func TestAsyncStragglerShowsImbalance(t *testing.T) {
	const (
		workers = 3
		burn    = 5 * time.Millisecond
	)
	ds := testDataset(t, 1000, 6)
	grad := dyadicGradients(1000, 7)
	cfg := perfCheckConfig(workers)
	cfg.MaxDepth = 6 // ~64 leaves: enough nodes that the claim race stays busy
	b, err := NewBuilder(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	var straggler atomic.Int32
	straggler.Store(-1)
	var claims, base [workers]atomic.Int64
	asyncYield = func(worker int, point string) {
		if point == "loop" && claims[worker].Load() == 0 {
			// Work booked before the first claim is the warm-up batches'.
			base[worker].Store(b.Perf().StateNanos(worker, perf.Work))
		}
		if point != "claimed" {
			return
		}
		claims[worker].Add(1)
		straggler.CompareAndSwap(-1, int32(worker))
		if straggler.Load() == int32(worker) {
			burnFor(burn)
		}
	}
	defer func() { asyncYield = nil }()
	if _, err := b.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	slow := int(straggler.Load())
	if slow < 0 {
		t.Fatal("no worker ever claimed a node")
	}
	acc := b.Perf()
	// asyncWork is the Work a worker booked in the ASYNC loop.
	asyncWork := func(w int) int64 { return acc.StateNanos(w, perf.Work) - base[w].Load() }
	if work, floor := asyncWork(slow), claims[slow].Load()*burn.Nanoseconds(); work < floor {
		t.Errorf("straggler %d booked %d ns of Work for %d claims, less than the %d ns it burned",
			slow, work, claims[slow].Load(), floor)
	}
	// Work per claim, the straggler's against the other workers' pooled
	// (pooled, so one worker that sat descheduled through its only claim
	// cannot speak for all of them).
	var otherWork, otherClaims int64
	for w := 0; w < workers; w++ {
		if w != slow {
			otherWork += asyncWork(w)
			otherClaims += claims[w].Load()
		}
	}
	if otherClaims > 0 {
		mine := float64(asyncWork(slow)) / float64(claims[slow].Load())
		theirs := float64(otherWork) / float64(otherClaims)
		if mine < 1.3*theirs {
			t.Errorf("Work per claim: straggler %.0f ns over %d claims, the others %.0f ns over %d; want a ratio >= 1.3",
				mine, claims[slow].Load(), theirs, otherClaims)
		}
	}
	r := acc.Snapshot()
	if err := r.ConservationError(); err > 0.01 {
		t.Errorf("conservation error %.2e > 1%%", err)
	}
	// The straggler's slack must surface as the other workers' non-Work
	// time, not vanish: queue starvation, the end-of-region barrier, or
	// (on one core) launch-gap idle.
	var otherWait float64
	for w := 0; w < workers; w++ {
		if w == slow {
			continue
		}
		otherWait += r.StateSeconds[perf.BarrierWait.String()][w] +
			r.StateSeconds[perf.QueueWait.String()][w] +
			r.StateSeconds[perf.Idle.String()][w]
	}
	if otherWait <= 0 {
		t.Error("non-straggler workers recorded no wait time")
	}
}

// TestPerfDisabledByDefault: without Config.Perf the builder must not
// attach a ledger (the disabled cost is a nil check per site).
func TestPerfDisabledByDefault(t *testing.T) {
	ds := testDataset(t, 400, 5)
	grad := dyadicGradients(400, 9)
	b, err := NewBuilder(schedCheckConfig(2), ds)
	if err != nil {
		t.Fatal(err)
	}
	if b.Perf() != nil {
		t.Fatal("Perf accounting attached without Config.Perf")
	}
	if _, err := b.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
}

// TestPerfDepthSyncsRecorded: barrier-mode batches must log their region
// counts under the batch depth (the O(2^D) barrier-growth measurement).
func TestPerfDepthSyncsRecorded(t *testing.T) {
	ds := testDataset(t, 1000, 6)
	grad := dyadicGradients(1000, 5)
	cfg := Config{
		Mode: Sync, K: 4, Growth: schedCheckConfig(1).Growth, TreeSize: 8,
		Params: schedCheckConfig(1).Params, Workers: 4, Virtual: true, Perf: true,
	}
	b, err := NewBuilder(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.BuildTree(grad); err != nil {
		t.Fatal(err)
	}
	r := b.Perf().Snapshot()
	if len(r.DepthSyncs) == 0 {
		t.Fatal("SYNC build recorded no per-depth barrier counts")
	}
	var total int64
	for _, n := range r.DepthSyncs {
		total += n
	}
	if total == 0 {
		t.Error("per-depth barrier counts all zero")
	}
}
