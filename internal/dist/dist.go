// Package dist extends HarpGBDT to distributed training — the paper's
// first future-work item (Sec. VII). It simulates a cluster of nodes, each
// holding a row shard, running the standard histogram-allreduce algorithm
// both XGBoost and LightGBM use for data-parallel distributed training:
//
//  1. every node builds local GHSum histograms for the current TopK batch
//     over its shard (compute simulated per node on a virtual pool);
//  2. the histograms are ring-allreduced (communication charged by a
//     bytes/bandwidth + hops*latency cost model; the sums themselves are
//     computed exactly);
//  3. every node evaluates the same splits and partitions its shard.
//
// The result is bit-identical to single-node training on the concatenated
// data (given order-insensitive gradient sums), plus a simulated time
// decomposition into compute and communication — which is what a
// distributed-scaling study needs.
package dist

import (
	"fmt"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/fault"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/histogram"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/tree"
)

// Config parameterizes the simulated cluster and the tree growth.
type Config struct {
	// Nodes is the cluster size (default 4).
	Nodes int
	// WorkersPerNode is each node's simulated thread count (default 8).
	WorkersPerNode int
	// BandwidthMBps is the per-link allreduce bandwidth (default 1180,
	// ~10 GbE payload rate).
	BandwidthMBps float64
	// LatencyMicros is the per-hop message latency (default 25µs).
	LatencyMicros float64
	// TreeSize is the paper's D (leaf budget 2^(D-1)).
	TreeSize int
	// K is the TopK batch size (default 32).
	K int
	// MaxDepth optionally caps leafwise depth.
	MaxDepth int
	// Params are the split hyper-parameters.
	Params tree.SplitParams

	// StragglerFactor > 1 slows StragglerNode's compute by that factor
	// (straggler simulation; <= 1 disables).
	StragglerFactor float64
	// StragglerNode is the index of the straggling node.
	StragglerNode int
	// MaxRetries bounds allreduce retries after an injected failure before
	// FailNode is declared dead (default 2; negative retries nothing, the
	// first failure kills the node).
	MaxRetries int
	// StepTimeoutMicros is the simulated timeout charged per failed
	// allreduce attempt (default 5000).
	StepTimeoutMicros float64
	// RetryBackoffMicros is the base of the exponential backoff between
	// allreduce retries (default 100).
	RetryBackoffMicros float64
	// FailNode is the node declared dead when allreduce retries are
	// exhausted (default 0; if already dead, the next alive node fails).
	FailNode int
	// FailureBudget bounds how many node deaths the cluster tolerates over
	// a run before aborting cleanly (the degradation ladder's budget).
	// 0 defaults to Nodes-1 — degrade as long as any node survives;
	// negative tolerates no deaths at all.
	FailureBudget int
	// RejoinAfterRounds, when > 0, automatically readmits a dead node once
	// it has sat out that many rounds: the node restores its state from the
	// last checkpoint the boosting loop reported (ObserveCheckpoint) plus a
	// peer replica of its raw shard, with the restore charged to the
	// virtual clock, and takes its original shard back. 0 disables
	// automatic readmission (explicit Readmit/chaos rejoins still work).
	RejoinAfterRounds int
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 8
	}
	if c.BandwidthMBps == 0 {
		c.BandwidthMBps = 1180
	}
	if c.LatencyMicros == 0 {
		c.LatencyMicros = 25
	}
	if c.TreeSize == 0 {
		c.TreeSize = 8
	}
	if c.K == 0 {
		c.K = 32
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.StepTimeoutMicros == 0 {
		c.StepTimeoutMicros = 5000
	}
	if c.RetryBackoffMicros == 0 {
		c.RetryBackoffMicros = 100
	}
	if c.FailureBudget == 0 {
		c.FailureBudget = c.Nodes - 1
	} else if c.FailureBudget < 0 {
		c.FailureBudget = 0
	}
	if c.Params == (tree.SplitParams{}) {
		c.Params = tree.DefaultSplitParams()
	}
	return c
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Nodes < 0 || c.Nodes > 4096 {
		return fmt.Errorf("dist: node count %d out of range", c.Nodes)
	}
	if c.TreeSize < 0 || c.TreeSize > 30 {
		return fmt.Errorf("dist: tree size %d out of range", c.TreeSize)
	}
	if c.BandwidthMBps < 0 || c.LatencyMicros < 0 {
		return fmt.Errorf("dist: negative network parameters")
	}
	if c.StepTimeoutMicros < 0 || c.RetryBackoffMicros < 0 {
		return fmt.Errorf("dist: negative retry parameters")
	}
	if c.StragglerFactor < 0 {
		return fmt.Errorf("dist: negative straggler factor %g", c.StragglerFactor)
	}
	if c.RejoinAfterRounds < 0 {
		return fmt.Errorf("dist: negative rejoin-after-rounds %d", c.RejoinAfterRounds)
	}
	if c.Nodes > 0 && (c.FailNode < 0 || c.FailNode >= c.Nodes) {
		return fmt.Errorf("dist: fail node %d out of range [0, %d)", c.FailNode, c.Nodes)
	}
	if c.Nodes > 0 && (c.StragglerNode < 0 || c.StragglerNode >= c.Nodes) {
		return fmt.Errorf("dist: straggler node %d out of range [0, %d)", c.StragglerNode, c.Nodes)
	}
	return nil
}

// MaxLeaves returns the leaf budget.
func (c Config) MaxLeaves() int {
	d := c.TreeSize
	if d <= 0 {
		d = 8
	}
	if d > 30 {
		d = 30
	}
	return 1 << (d - 1)
}

// Trainer is a simulated distributed GBDT trainer. It implements
// engine.Builder, so the standard booster drives it unchanged.
type Trainer struct {
	cfg    Config
	ds     *dataset.Dataset
	layout *histogram.Layout
	hpool  *histogram.Pool
	pool   *sched.Pool // virtual pool representing one node's threads
	prof   *profile.Breakdown
	shards []shard

	// alive[i] reports whether cluster node i is still up; owner[s] is the
	// node currently responsible for shard s (re-owned on node failure,
	// handed back on readmission).
	alive []bool
	owner []int

	// Degradation-ladder state: deadRound[i] is the 1-based round node i
	// died in (0 = alive), deaths counts deaths against cfg.FailureBudget.
	deadRound []int
	deaths    int

	// Checkpoint bridge (engine.CheckpointObserver): the last durable
	// checkpoint the boosting loop reported; rejoining nodes restore from
	// it. ckptRound is the completed round the artifact holds.
	ckptPath  string
	ckptRound int

	// chaos is the armed fault schedule (ApplyChaos), applied at the start
	// of each round; stragFactor/stragUntil carry chaos-driven dynamic
	// straggler slowdowns (factor > 1 applies through round stragUntil).
	chaos       *fault.Schedule
	stragFactor []float64
	stragUntil  []int

	// commNanos accumulates simulated allreduce time; retryNanos the time
	// lost to allreduce timeouts/backoff; recoveryNanos the re-sharding
	// cost of node failures; rejoinNanos the restore cost of readmissions.
	commNanos     int64
	retryNanos    int64
	recoveryNanos int64
	rejoinNanos   int64

	// ledger accounts every simulated message (see ledger.go); clock is the
	// per-node virtual timeline the trace lanes are drawn on; flowSeq
	// numbers send→recv flow arrows; named latches lane registration.
	ledger  *commsLedger
	clock   []int64
	flowSeq uint64
	named   bool
}

// shard is one node's row range.
type shard struct {
	lo, hi int32
}

// NewTrainer shards the dataset row-wise across the simulated nodes.
func NewTrainer(cfg Config, ds *dataset.Dataset) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := ds.NumRows()
	if n < cfg.Nodes {
		return nil, fmt.Errorf("dist: %d rows cannot shard across %d nodes", n, cfg.Nodes)
	}
	layout := histogram.NewLayout(ds.Cuts)
	t := &Trainer{
		cfg:    cfg,
		ds:     ds,
		layout: layout,
		hpool:  histogram.NewPool(layout),
		pool:   sched.NewVirtualPool(cfg.WorkersPerNode, sched.CostModel{}),
		prof:   &profile.Breakdown{},
	}
	per := n / cfg.Nodes
	for i := 0; i < cfg.Nodes; i++ {
		lo := int32(i * per)
		hi := int32((i + 1) * per)
		if i == cfg.Nodes-1 {
			hi = int32(n)
		}
		t.shards = append(t.shards, shard{lo, hi})
		t.alive = append(t.alive, true)
		t.owner = append(t.owner, i)
	}
	t.ledger = newCommsLedger(cfg.Nodes)
	t.clock = make([]int64, cfg.Nodes)
	t.deadRound = make([]int, cfg.Nodes)
	t.stragFactor = make([]float64, cfg.Nodes)
	t.stragUntil = make([]int, cfg.Nodes)
	return t, nil
}

// Name implements engine.Builder.
func (t *Trainer) Name() string { return fmt.Sprintf("dist-%dnodes", t.cfg.Nodes) }

// Pool implements engine.Builder.
func (t *Trainer) Pool() *sched.Pool { return t.pool }

// Profile implements engine.Builder.
func (t *Trainer) Profile() *profile.Breakdown { return t.prof }

// CommNanos reports the accumulated simulated allreduce time.
func (t *Trainer) CommNanos() int64 { return t.commNanos }

// allreduceNanos models one ring allreduce of `bytes` across the alive
// nodes: 2(N-1)/N * bytes through the bandwidth plus 2(N-1) latency hops.
func (t *Trainer) allreduceNanos(bytes int64) int64 {
	n := float64(t.AliveNodes())
	if n <= 1 {
		return 0
	}
	volume := 2 * (n - 1) / n * float64(bytes)
	seconds := volume / (t.cfg.BandwidthMBps * 1e6)
	hops := 2 * (n - 1)
	return int64(seconds*1e9) + int64(hops*t.cfg.LatencyMicros*1e3)
}

// nodeState is the per-tree-node training state; rows are stored per shard.
type nodeState struct {
	rows  [][]int32 // one row list per cluster node
	sum   gh.Pair
	count int32
	hist  *histogram.Hist
	split tree.SplitInfo
}

func (ns *nodeState) totalRows() int {
	n := 0
	for _, r := range ns.rows {
		n += len(r)
	}
	return n
}

// distBuild is the per-tree state.
type distBuild struct {
	grad   gh.Buffer
	tr     *tree.Tree
	states []*nodeState
	queue  *grow.Queue
	leaves int
}

// BuildTree implements engine.Builder.
func (t *Trainer) BuildTree(grad gh.Buffer) (*engine.BuiltTree, error) {
	if len(grad) != t.ds.NumRows() {
		return nil, fmt.Errorf("dist: %d gradients for %d rows", len(grad), t.ds.NumRows())
	}
	t.ledger.beginRound()
	t.nameLanes()
	obs.L().Debug("dist round start",
		obs.KeyComponent, "dist", obs.KeyRound, t.ledger.round, "alive", t.AliveNodes())
	// Elastic membership: fire this round's chaos events and readmit nodes
	// whose rejoin wait elapsed, before any collective step.
	if err := t.beginRoundElastic(); err != nil {
		return nil, err
	}
	n := t.ds.NumRows()
	rootRows := make([][]int32, len(t.shards))
	var rootSum gh.Pair
	for s, sh := range t.shards {
		rows := make([]int32, 0, sh.hi-sh.lo)
		for r := sh.lo; r < sh.hi; r++ {
			rows = append(rows, r)
			rootSum.Add(grad[r])
		}
		rootRows[s] = rows
	}
	tr := tree.New(rootSum.G, rootSum.H, int32(n))
	tr.Nodes[0].Weight = t.cfg.Params.CalcWeight(rootSum.G, rootSum.H)
	st := &distBuild{
		grad:   grad,
		tr:     tr,
		states: []*nodeState{{rows: rootRows, sum: rootSum, count: int32(n), split: tree.InvalidSplit()}},
		queue:  grow.NewQueue(grow.Leafwise),
		leaves: 1,
	}

	if err := t.buildHists(st, []int32{0}); err != nil {
		return nil, err
	}
	t.findSplits(st, []int32{0})
	t.pushOrFinalize(st, 0)

	maxLeaves := t.cfg.MaxLeaves()
	for st.queue.Len() > 0 && st.leaves < maxLeaves {
		k := t.cfg.K
		if rem := maxLeaves - st.leaves; k > rem {
			k = rem
		}
		batch := st.queue.PopBatch(k)
		st.leaves += len(batch)
		// The batch that spends the leaf budget is the last: its children
		// stay leaves, so nothing is built, allreduced or scanned for them.
		final := st.leaves >= maxLeaves
		var evalIDs []int32
		for _, c := range batch {
			l, r := t.applySplit(st, c.NodeID)
			for _, id := range []int32{l, r} {
				if !final && t.canSplit(st, id) {
					evalIDs = append(evalIDs, id)
				}
			}
			t.releaseHist(st.states[c.NodeID])
		}
		if err := t.buildHists(st, evalIDs); err != nil {
			return nil, err
		}
		t.findSplits(st, evalIDs)
		for _, id := range evalIDs {
			t.pushOrFinalize(st, id)
		}
	}
	for {
		c, ok := st.queue.Pop()
		if !ok {
			break
		}
		t.releaseHist(st.states[c.NodeID])
	}
	leafOf := make([]int32, n)
	for id := range st.states {
		if !tr.Nodes[id].IsLeaf() {
			continue
		}
		for _, rows := range st.states[id].rows {
			for _, r := range rows {
				leafOf[r] = int32(id)
			}
		}
	}
	return &engine.BuiltTree{Tree: tr, LeafOf: leafOf}, nil
}

// buildHists computes every listed node's global histogram: per cluster
// node local accumulation (compute simulated: the slowest alive node
// bounds the step), followed by one ring allreduce of the batch's
// histograms with timeout/retry/failover semantics (allreduceWithRetry).
func (t *Trainer) buildHists(st *distBuild, ids []int32) error {
	if len(ids) == 0 {
		return nil
	}
	tm := profile.StartTimer()
	bm := t.ds.Binned
	m := t.ds.NumFeatures()
	// Local phase: measure each shard's compute serially, accumulate per
	// owning node (a survivor carries the shards it adopted from the dead).
	perOwner := make([]int64, len(t.shards))
	var serial int64
	for s := range t.shards {
		t0 := profile.StartTimer()
		for _, id := range ids {
			ns := st.states[id]
			if ns.hist == nil {
				ns.hist = t.hpool.Get()
				ns.hist.Reset()
			}
			ns.hist.AccumulateRows(bm, st.grad, ns.rows[s], 0, m)
		}
		d := t0.Elapsed().Nanoseconds()
		serial += d
		perOwner[t.owner[s]] += d
	}
	// Within a node, WorkersPerNode threads share the shard work.
	walls := t.nodeWalls(perOwner, int64(t.cfg.WorkersPerNode))
	maxNode := t.advancePhase("build-hist", walls)
	// Histograms were accumulated directly into the shared Hist (the sum a
	// real allreduce would produce); charge the simulated network cost.
	histBytes := int64(len(ids)) * int64(t.layout.TotalBins()) * 16
	comm, err := t.allreduceWithRetry(histBytes)
	if err != nil {
		return err
	}
	t.commNanos += comm
	wall := maxNode + comm
	t.pool.RecordExternalRegion(int64(len(ids)*len(t.shards)), serial,
		maxNode*int64(t.AliveNodes()), 0, wall)
	t.prof.Add(profile.BuildHist, tm.Elapsed())
	return nil
}

func (t *Trainer) findSplits(st *distBuild, ids []int32) {
	if len(ids) == 0 {
		return
	}
	tm := profile.StartTimer()
	m := t.ds.NumFeatures()
	for _, id := range ids {
		ns := st.states[id]
		ns.split = ns.hist.FindBestSplit(t.cfg.Params, ns.sum, 0, m)
	}
	elapsed := tm.Elapsed()
	// Every cluster node evaluates the same reduced histograms, using its
	// local threads across (node, feature) tasks.
	serial := elapsed.Nanoseconds()
	wall := serial / int64(t.cfg.WorkersPerNode)
	if wall < 1 {
		wall = 1
	}
	walls := make([]int64, len(t.alive))
	for node, a := range t.alive {
		if a {
			walls[node] = wall
		}
	}
	t.advancePhase("find-split", walls)
	t.pool.RecordExternalRegion(int64(len(ids)), serial, serial, 0, wall)
	t.prof.Add(profile.FindSplit, elapsed)
}

// applySplit expands the tree and partitions every shard's row list.
func (t *Trainer) applySplit(st *distBuild, id int32) (int32, int32) {
	tm := profile.StartTimer()
	ns := st.states[id]
	s := ns.split
	l, r := st.tr.AddChildren(id, s.Feature, s.Bin,
		t.ds.Cuts.UpperBound(int(s.Feature), s.Bin), s.DefaultLeft, s.Gain)
	goLeft := engine.GoLeftFunc(t.ds.Binned, s)
	left := &nodeState{rows: make([][]int32, len(t.shards)), sum: gh.Pair{G: s.LeftG, H: s.LeftH}, split: tree.InvalidSplit()}
	right := &nodeState{rows: make([][]int32, len(t.shards)), sum: gh.Pair{G: s.RightG, H: s.RightH}, split: tree.InvalidSplit()}
	perOwner := make([]int64, len(t.shards))
	var serial int64
	for sh := range t.shards {
		t0 := profile.StartTimer()
		for _, row := range ns.rows[sh] {
			if goLeft.GoLeft(row) {
				left.rows[sh] = append(left.rows[sh], row)
			} else {
				right.rows[sh] = append(right.rows[sh], row)
			}
		}
		d := t0.Elapsed().Nanoseconds()
		serial += d
		perOwner[t.owner[sh]] += d
	}
	// Shards partition concurrently, one group per owning cluster node.
	t.pool.RecordExternalRegion(int64(len(t.shards)), serial, serial, 0,
		max64(t.advancePhase("apply-split", t.nodeWalls(perOwner, 1)), 1))
	left.count = int32(left.totalRows())
	right.count = int32(right.totalRows())
	ns.rows = nil
	st.states = append(st.states, left, right)
	ln, rn := &st.tr.Nodes[l], &st.tr.Nodes[r]
	ln.SumG, ln.SumH, ln.Count = left.sum.G, left.sum.H, left.count
	rn.SumG, rn.SumH, rn.Count = right.sum.G, right.sum.H, right.count
	ln.Weight = t.cfg.Params.CalcWeight(left.sum.G, left.sum.H)
	rn.Weight = t.cfg.Params.CalcWeight(right.sum.G, right.sum.H)
	t.prof.Add(profile.ApplySplit, tm.Elapsed())
	return l, r
}

func (t *Trainer) canSplit(st *distBuild, id int32) bool {
	ns := st.states[id]
	if ns.count < 2 || ns.sum.H < 2*t.cfg.Params.MinChildWeight {
		return false
	}
	if t.cfg.MaxDepth > 0 && int(st.tr.Nodes[id].Depth) >= t.cfg.MaxDepth {
		return false
	}
	return true
}

func (t *Trainer) pushOrFinalize(st *distBuild, id int32) {
	ns := st.states[id]
	if !ns.split.Valid() {
		t.releaseHist(ns)
		return
	}
	st.queue.Push(grow.Candidate{NodeID: id, Gain: ns.split.Gain, Depth: st.tr.Nodes[id].Depth, Count: ns.count})
}

func (t *Trainer) releaseHist(ns *nodeState) {
	if ns.hist != nil {
		t.hpool.Put(ns.hist)
		ns.hist = nil
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
