package core

import (
	"fmt"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/histogram"
	"harpgbdt/internal/invariant"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/perf"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

// Engine metrics, pre-registered in the obs default registry so they are
// exported whenever an observability server is running. The handles are
// bare atomics; updates cost a few nanoseconds and are placed at per-node
// (not per-row) granularity so the disabled cost is unmeasurable.
var (
	mTreesBuilt = obs.DefaultRegistry().Counter("trees_built_total",
		"Trees built by the harp engine.")
	mNodesSplit = obs.DefaultRegistry().Counter("nodes_split_total",
		"Tree nodes split into children by the harp engine.")
	mBuildHistRows = obs.DefaultRegistry().Counter("buildhist_rows_total",
		"Rows accumulated into node histograms (per histogram build, pre-subtraction).")
	mQueueDepth = obs.DefaultRegistry().Gauge("queue_depth",
		"Splittable candidates currently waiting in the grow queue.")
	mBlockTaskSeconds = obs.DefaultRegistry().Histogram("block_task_seconds",
		"Duration distribution of scheduled block tasks (hist kernels and split search).", nil)
)

// Builder is the HarpGBDT tree builder. It is bound to one dataset and one
// scheduler and may be reused across boosting rounds. It is not safe for
// concurrent BuildTree calls.
type Builder struct {
	cfg    Config
	ds     *dataset.Dataset
	pool   *sched.Pool
	layout *histogram.Layout
	hpool  *histogram.Pool
	blocks *dataset.ColumnBlocks
	// arena holds every node's rows for the tree being built (see
	// engine.Arena): allocated here once, refilled at each tree's root.
	arena *engine.Arena
	prof  *profile.Breakdown

	// acc is the per-worker wait-state ledger (nil unless cfg.Perf); the
	// named counter handles below are cached so hot paths skip the
	// registry lookup (nil handles are inert).
	acc         *perf.Accounting
	cWarmup     *perf.Counter
	cAsyncNodes *perf.Counter
	cQueueEmpty *perf.Counter

	// round counts BuildTree calls (drives per-tree column sampling).
	round int
	// colMask marks the features eligible for splits this tree (nil = all).
	colMask []bool
}

// NewBuilder validates the configuration and prepares the block layout.
func NewBuilder(cfg Config, ds *dataset.Dataset) (*Builder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.TreeSize == 0 {
		cfg.TreeSize = 8
	}
	fbs := cfg.FeatureBlockSize
	if fbs <= 0 || fbs > ds.NumFeatures() {
		fbs = ds.NumFeatures()
	}
	if fbs < 1 {
		fbs = 1
	}
	cfg.FeatureBlockSize = fbs
	if cfg.NodeBlockSize <= 0 {
		cfg.NodeBlockSize = 1
	}
	layout := histogram.NewLayout(ds.Cuts)
	pool := sched.NewPool(cfg.Workers)
	if cfg.Virtual {
		pool = sched.NewVirtualPool(cfg.Workers, cfg.Cost)
	}
	b := &Builder{
		cfg:    cfg,
		ds:     ds,
		pool:   pool,
		layout: layout,
		hpool:  histogram.NewPool(layout),
		blocks: dataset.NewColumnBlocks(ds.Binned, fbs),
		arena:  engine.NewArena(ds.NumRows(), cfg.UseMemBuf),
		prof:   &profile.Breakdown{},
	}
	if cfg.Perf {
		b.acc = perf.NewAccounting(pool.Workers())
		pool.SetAccounting(b.acc)
		b.cWarmup = b.acc.Counter("async_warmup_batches_total")
		b.cAsyncNodes = b.acc.Counter("async_nodes_total")
		b.cQueueEmpty = b.acc.Counter("async_queue_empty_total")
	}
	return b, nil
}

// Name implements engine.Builder.
func (b *Builder) Name() string { return "harp-" + b.cfg.Mode.String() }

// Pool implements engine.Builder.
func (b *Builder) Pool() *sched.Pool { return b.pool }

// Profile implements engine.Builder.
func (b *Builder) Profile() *profile.Breakdown { return b.prof }

// Config returns the builder's configuration (after defaulting).
func (b *Builder) Config() Config { return b.cfg }

// HistogramsAllocated reports the peak histogram count, a model-memory
// footprint metric.
func (b *Builder) HistogramsAllocated() int { return b.hpool.Allocated() }

// Perf returns the per-worker wait-state ledger (nil unless Config.Perf).
func (b *Builder) Perf() *perf.Accounting { return b.acc }

// nodeState is the per-node training state: the node's row set, gradient
// totals, leaf weight, histogram (while alive) and chosen split.
type nodeState struct {
	rows   engine.RowSet
	sum    gh.Pair
	weight float64
	count  int32
	hist   *histogram.Hist
	split  tree.SplitInfo
}

// newNode returns the state of a node with the given gradient totals; the
// pipeline steps fill in its rows, histogram and split.
func (b *Builder) newNode(sum gh.Pair) *nodeState {
	return &nodeState{sum: sum, weight: b.cfg.Params.CalcWeight(sum.G, sum.H), split: tree.InvalidSplit()}
}

// buildState is the per-tree state.
type buildState struct {
	grad   gh.Buffer
	t      *tree.Tree
	nodes  []*nodeState
	queue  *grow.Queue
	leaves int
}

// BuildTree implements engine.Builder.
func (b *Builder) BuildTree(grad gh.Buffer) (*engine.BuiltTree, error) {
	if len(grad) != b.ds.NumRows() {
		return nil, fmt.Errorf("core: %d gradients for %d rows", len(grad), b.ds.NumRows())
	}
	if b.ds.NumRows() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	sp := obs.StartSpan("tree", "BuildTree")
	b.sampleColumns()
	st := b.newBuildState(grad)
	if b.cfg.Mode == Async {
		b.buildAsync(st)
	} else {
		b.runBatches(st, nil)
	}
	b.drainQueue(st)
	bt := b.finish(st)
	mTreesBuilt.Inc()
	b.acc.EmitTrace()
	if sp.Active() {
		sp.EndWith(obs.Arg{Key: "mode", Value: b.cfg.Mode.String()},
			obs.Arg{Key: "leaves", Value: st.leaves})
	}
	return bt, nil
}

// newBuildState prepares the root node, its histogram and its split.
func (b *Builder) newBuildState(grad gh.Buffer) *buildState {
	n := b.ds.NumRows()
	rootRows := b.arena.Root(grad)
	root := b.newNode(rootRows.Sum(grad))
	root.rows, root.count = rootRows, int32(n)
	t := tree.New(root.sum.G, root.sum.H, root.count)
	t.Nodes[0].Weight = root.weight
	st := &buildState{
		grad:   grad,
		t:      t,
		nodes:  []*nodeState{root},
		queue:  grow.NewQueue(b.cfg.Growth),
		leaves: 1,
	}
	// The root goes through the pipeline as the one child of an expansion
	// with no parent histogram: built from rows, nothing to subtract.
	rootX := expansion{kids: [2]*nodeState{root}, plan: planHist([2]bool{true, false}, 0, false)}
	b.buildHistBatch(st, []int32{0})
	b.findSplitBatch([]expansion{rootX})
	b.pushOrFinalize(st, 0)
	return st
}

// runBatches is the barrier-mode main loop (DP, MP and SYNC; the ASYNC
// modes use it for their warm-up): pop a TopK batch and process it behind
// barriers, until the queue is empty, the leaf budget is spent or while
// (nil = always) stops holding. It returns the number of batches run.
func (b *Builder) runBatches(st *buildState, while func() bool) int64 {
	maxLeaves := b.cfg.MaxLeaves()
	var batches int64
	for st.queue.Len() > 0 && st.leaves < maxLeaves && (while == nil || while()) {
		k := b.cfg.EffectiveK()
		if rem := maxLeaves - st.leaves; k > rem {
			k = rem
		}
		batch := st.queue.PopBatch(k)
		mQueueDepth.Set(float64(st.queue.Len()))
		b.processBatch(st, batch)
		batches++
	}
	return batches
}

// processBatch applies the splits of a popped batch and prepares its
// children: the three barrier phases of one TopK step (the subtractions
// ride in the FindSplit tasks).
func (b *Builder) processBatch(st *buildState, batch []grow.Candidate) {
	var regions0 int64
	if b.acc != nil {
		regions0 = b.pool.Stats().Regions
	}
	xs := b.applySplitBatch(st, batch)
	st.leaves += len(batch)
	if st.leaves >= b.cfg.MaxLeaves() {
		for i := range xs {
			xs[i].final = true
		}
	}
	b.buildHistBatch(st, b.planHists(xs))
	b.findSplitBatch(xs)
	for i := range xs {
		for c, id := range xs[i].ids {
			if xs[i].plan.need[c] {
				b.pushOrFinalize(st, id)
			}
		}
	}
	if b.acc != nil && len(batch) > 0 {
		// Per-depth synchronization count: the barriers this batch cost,
		// attributed to the deepest node in it (the paper's O(2^D)
		// barrier-growth measurement).
		depth := batch[0].Depth
		for _, c := range batch[1:] {
			if c.Depth > depth {
				depth = c.Depth
			}
		}
		b.acc.AddDepthSync(int(depth), b.pool.Stats().Regions-regions0)
	}
}

// sampleColumns draws this tree's feature mask when column subsampling is
// enabled, guaranteeing at least one eligible feature.
func (b *Builder) sampleColumns() {
	cs := b.cfg.ColSampleByTree
	b.round++
	if cs <= 0 || cs >= 1 {
		b.colMask = nil
		return
	}
	m := b.ds.NumFeatures()
	rng := synth.NewRNG(b.cfg.Seed ^ (uint64(b.round) * 0x9e3779b97f4a7c15))
	mask := make([]bool, m)
	any := false
	for f := 0; f < m; f++ {
		if rng.Float64() < cs {
			mask[f] = true
			any = true
		}
	}
	if !any {
		mask[rng.Intn(m)] = true
	}
	b.colMask = mask
}

// phaseScope is one open barrier phase (see beginPhase).
type phaseScope struct {
	b       *Builder
	p, prev profile.Phase
	sp      obs.Span
	tm      profile.Timer
}

// beginPhase opens a barrier phase: until end(), the pool's regions book
// their Work under p in the ledger, the wall time goes to p in the
// breakdown and sp covers it in the trace (the caller opens sp because
// obshygiene wants span names constant at the StartSpan call).
func (b *Builder) beginPhase(p profile.Phase, sp obs.Span) phaseScope {
	return phaseScope{b: b, p: p, prev: b.acc.SetPhase(p), sp: sp, tm: profile.StartTimer()}
}

func (s phaseScope) end() {
	s.b.prof.Stop(s.p, s.tm)
	s.b.acc.SetPhase(s.prev)
	s.sp.End()
}

// expansion is one node being split: the parent and the two children the
// split creates (index 0 is the left child, 1 the right). It is what flows
// through the per-node pipeline in every mode: a barrier batch is a slice
// of them, an ASYNC worker carries one.
type expansion struct {
	id     int32 // the parent's node id
	parent *nodeState
	kids   [2]*nodeState
	ids    [2]int32 // the children's node ids, assigned by graft
	// depth is the children's depth, carried here because ASYNC workers
	// must not read the tree outside the queue lock.
	depth int32
	upper float32 // the split's cut value
	// final marks an expansion of the batch (or the ASYNC claim) that spends
	// the leaf budget: its children can never split, so they get neither a
	// histogram nor a split search.
	final bool
	plan  histPlan // how the children get histograms, known once partitioned
	// parentCopy is the parent's histogram as it was before the subtraction
	// overwrote it, kept for settle's conservation check (nil unless
	// harpdebug).
	parentCopy *histogram.Hist
}

// expand counts the split of candidate c and allocates its children from
// parent's split record. It touches no shared state, so ASYNC workers run
// it unlocked.
func (b *Builder) expand(c grow.Candidate, parent *nodeState) expansion {
	mNodesSplit.Inc()
	s := parent.split
	return expansion{
		id:     c.NodeID,
		parent: parent,
		kids:   [2]*nodeState{b.newNode(gh.Pair{G: s.LeftG, H: s.LeftH}), b.newNode(gh.Pair{G: s.RightG, H: s.RightH})},
		depth:  c.Depth + 1,
		upper:  b.ds.Cuts.UpperBound(int(s.Feature), s.Bin),
	}
}

// graft grows the tree skeleton and the node table by x's two children.
// It is the only place either grows; ASYNC workers call it under the
// run's spin mutex.
func (st *buildState) graft(x *expansion) {
	s := x.parent.split
	x.ids[0], x.ids[1] = st.t.AddChildren(x.id, s.Feature, s.Bin, x.upper, s.DefaultLeft, s.Gain)
	st.nodes = append(st.nodes, x.kids[0], x.kids[1])
}

// writeStats copies a partitioned node's totals into its tree node.
func (st *buildState) writeStats(id int32, ns *nodeState) {
	tn := &st.t.Nodes[id]
	tn.SumG, tn.SumH, tn.Count, tn.Weight = ns.sum.G, ns.sum.H, ns.count, ns.weight
}

// applySplitBatch expands the tree for every candidate and partitions their
// row sets (ApplySplit). Tree mutation is serial; partitions run in
// parallel.
func (b *Builder) applySplitBatch(st *buildState, batch []grow.Candidate) []expansion {
	defer b.beginPhase(profile.ApplySplit, obs.StartSpan("phase", "ApplySplit")).end()
	xs := make([]expansion, len(batch))
	for i, c := range batch {
		xs[i] = b.expand(c, st.nodes[c.NodeID])
		st.graft(&xs[i])
	}
	// Partition phase: one parallel region for the whole batch.
	if len(xs) == 1 {
		b.partition(&xs[0], b.pool)
	} else {
		tasks := make([]func(int), len(xs))
		for i := range xs {
			x := &xs[i]
			tasks[i] = func(w int) {
				tsp := obs.StartSpanTID("block-task", "partition", w+1)
				b.partition(x, nil)
				tsp.End()
			}
		}
		b.pool.RunTasks(tasks)
	}
	for i := range xs {
		for c, ns := range xs[i].kids {
			st.writeStats(xs[i].ids[c], ns)
		}
	}
	return xs
}

// partition splits the parent's row set between the two children, in the
// arena: the children's rows replace the parent's, which is released. A
// non-nil pool parallelizes inside the node.
func (b *Builder) partition(x *expansion, pool *sched.Pool) {
	parent, left, right := x.parent, x.kids[0], x.kids[1]
	test := b.splitTest(parent.split)
	before := invariant.RowIDs(parent.rows) // nil unless harpdebug
	l, r := engine.Partition(parent.rows, test, pool)
	left.rows, right.rows = l, r
	left.count, right.count = int32(l.Len()), int32(r.Len())
	parent.rows = engine.RowSet{}
	if invariant.Enabled {
		invariant.PartitionPermutation(before, l, r, test, "core.partition")
		invariant.SplitConservation(parent.sum, left.sum, right.sum, "core.partition")
	}
}

// splitTest returns the predicate of split s reading the split feature's
// column of its block panel: BlockWidth bytes per row, where the row-major
// matrix strides by M.
func (b *Builder) splitTest(s tree.SplitInfo) engine.SplitTest {
	f := int(s.Feature)
	fLo, fHi, panel := b.blocks.Block(f / b.blocks.BlockWidth)
	return engine.NewSplitTest(panel[f-fLo:], fHi-fLo, s)
}

// histPlan says how the two children of one expansion get histograms.
type histPlan struct {
	// need marks the children that can split further: they must end up
	// with a histogram and have their best split evaluated.
	need  [2]bool
	build [2]bool // accumulate this child's histogram from its rows
	small int     // the child with fewer rows
	// subtract derives the bigger child's histogram as parent minus the
	// (built) smaller one, consuming the parent's histogram; when false
	// the parent's histogram is simply released.
	subtract bool
}

// planHist is the histogram rule. Whenever the bigger child needs a
// histogram and the parent's is still alive, build the smaller child and
// subtract (cheaper than scanning the bigger child's rows): that covers
// lNeed && rNeed as well as the bigger child alone. Otherwise build what
// is needed from rows.
func planHist(need [2]bool, small int, parentAlive bool) histPlan {
	p := histPlan{need: need, build: need, small: small}
	if parentAlive && need[1-small] {
		p.build, p.subtract = [2]bool{small == 0, small == 1}, true
	}
	return p
}

// planFor applies planHist to a partitioned expansion and records the plan
// in it.
func (b *Builder) planFor(x *expansion) histPlan {
	small := 0
	if x.kids[0].count > x.kids[1].count {
		small = 1
	}
	var need [2]bool
	if !x.final {
		need = [2]bool{b.canSplit(x.kids[0], x.depth), b.canSplit(x.kids[1], x.depth)}
	}
	x.plan = planHist(need, small, !b.cfg.DisableSubtraction && x.parent.hist != nil)
	return x.plan
}

// planHists plans a batch and returns the nodes the BuildHist phase must
// build from rows. Parent histograms no subtraction will consume are
// released here.
func (b *Builder) planHists(xs []expansion) (buildIDs []int32) {
	for i := range xs {
		x := &xs[i]
		p := b.planFor(x)
		for c, id := range x.ids {
			if p.build[c] {
				buildIDs = append(buildIDs, id)
			}
		}
		if !p.subtract {
			b.releaseHist(x.parent)
		}
	}
	return buildIDs
}

// The FindSplit step of one expansion is handOver, then splitBlock for
// every feature block, then settle with the blocks' results reduced. The
// barrier modes run the block steps of a whole batch as one region of
// ⟨expansion, feature block⟩ tasks (findSplitBatch); an ASYNC worker loops
// over its node's blocks (findSplits). handOver and settle are serial
// either way.

// handOver starts x.plan.subtract: the parent's histogram becomes the
// bigger child's by pointer; its cells turn into the child's block by block
// in splitBlock.
func (b *Builder) handOver(x *expansion) {
	if !x.plan.subtract {
		return
	}
	if invariant.Enabled {
		x.parentCopy = x.parent.hist.Clone()
	}
	x.kids[1-x.plan.small].hist, x.parent.hist = x.parent.hist, nil
}

// childSplits is the best split known for each child of an expansion.
type childSplits [2]tree.SplitInfo

func noSplits() childSplits { return childSplits{tree.InvalidSplit(), tree.InvalidSplit()} }

// merge folds r, the result of one more feature block, into s.
func (s *childSplits) merge(r childSplits) {
	for c := range r {
		if r[c].Better(s[c]) {
			s[c] = r[c]
		}
	}
}

// splitBlock is the block step, the only place a block is subtracted or
// scanned. When the plan subtracts, the built child is listed first — its
// split search, or Trim when its split is not needed — which shrinks its
// cell set to the cells it holds; sibling[block] = parent[block] −
// built[block] then visits those cells only, and at once — the block is
// 16 KB at the default shape and still in L1 — the sibling's split search
// runs. Otherwise each child that needs a split is scanned.
func (b *Builder) splitBlock(x *expansion, fb int) childSplits {
	p := x.plan
	fLo, fHi, _ := b.blocks.Block(fb)
	best := noSplits()
	if p.subtract {
		built, sibling := x.kids[p.small], x.kids[1-p.small]
		if p.need[p.small] {
			best[p.small] = b.findSplit(built, fLo, fHi)
		} else {
			built.hist.Trim(fLo, fHi)
		}
		if invariant.Enabled {
			invariant.HistCellSet(built.hist, fLo, fHi, "core.splitBlock")
		}
		sibling.hist.SubListed(built.hist, fLo, fHi)
		best[1-p.small] = b.findSplit(sibling, fLo, fHi)
		return best
	}
	for c, ns := range x.kids {
		if p.need[c] {
			best[c] = b.findSplit(ns, fLo, fHi)
		}
	}
	return best
}

// findSplit is ns's best split inside features [fLo, fHi).
func (b *Builder) findSplit(ns *nodeState, fLo, fHi int) tree.SplitInfo {
	return ns.hist.FindBestSplitMasked(b.cfg.Params, ns.sum, fLo, fHi, b.colMask)
}

// settle ends the FindSplit step: the children take their best splits, and
// a child built only to be subtracted gives its histogram back.
func (b *Builder) settle(x *expansion, best childSplits) {
	p := x.plan
	for c, ns := range x.kids {
		if p.need[c] {
			ns.split = best[c]
		}
	}
	if !p.subtract {
		return
	}
	built := x.kids[p.small]
	if invariant.Enabled {
		invariant.HistConservation(x.parentCopy, built.hist, x.kids[1-p.small].hist, "core.settle")
		x.parentCopy = nil
	}
	if !p.need[p.small] {
		b.releaseHist(built)
	}
}

// findSplits is the FindSplit step of one expansion on the calling worker.
func (b *Builder) findSplits(x *expansion) {
	b.handOver(x)
	best := noSplits()
	for fb := 0; fb < b.blocks.NumBlocks(); fb++ {
		best.merge(b.splitBlock(x, fb))
	}
	b.settle(x, best)
}

// canSplit reports whether a node at the given depth can possibly be
// split further.
func (b *Builder) canSplit(ns *nodeState, depth int32) bool {
	if ns.count < 2 {
		return false
	}
	if ns.sum.H < 2*b.cfg.Params.MinChildWeight {
		return false
	}
	if lim := b.cfg.DepthLimit(); lim > 0 && int(depth) >= lim {
		return false
	}
	return true
}

// pushOrFinalize queues node id as a split candidate, or finalizes it as a
// leaf (releasing its histogram) when its best split is invalid.
func (b *Builder) pushOrFinalize(st *buildState, id int32) {
	ns := st.nodes[id]
	if !ns.split.Valid() {
		b.releaseHist(ns)
		return
	}
	st.queue.Push(candidate(id, ns, st.t.Nodes[id].Depth))
}

// candidate is the queue entry of a node whose best split is known.
func candidate(id int32, ns *nodeState, depth int32) grow.Candidate {
	return grow.Candidate{NodeID: id, Gain: ns.split.Gain, Depth: depth, Count: ns.count}
}

// drainQueue finalizes all still-queued candidates as leaves.
func (b *Builder) drainQueue(st *buildState) {
	for {
		c, ok := st.queue.Pop()
		if !ok {
			return
		}
		b.releaseHist(st.nodes[c.NodeID])
	}
}

func (b *Builder) releaseHist(ns *nodeState) {
	if ns.hist != nil {
		b.hpool.Put(ns.hist)
		ns.hist = nil
	}
}

// findSplitBatch is the FindSplit step of every expansion of a batch that
// has a child to evaluate: one parallel region of ⟨expansion, feature
// block⟩ tasks followed by a deterministic serial reduction.
func (b *Builder) findSplitBatch(xs []expansion) {
	var todo []*expansion
	for i := range xs {
		if x := &xs[i]; x.plan.need[0] || x.plan.need[1] {
			todo = append(todo, x)
		}
	}
	if len(todo) == 0 {
		return
	}
	defer b.beginPhase(profile.FindSplit, obs.StartSpan("phase", "FindSplit")).end()
	nb := b.blocks.NumBlocks()
	results := make([]childSplits, len(todo)*nb)
	tasks := make([]func(int), 0, len(results))
	for i, x := range todo {
		b.handOver(x)
		for fb := 0; fb < nb; fb++ {
			x, fb, r := x, fb, &results[i*nb+fb]
			tasks = append(tasks, func(w int) {
				tsp := obs.StartSpanTID("block-task", "find-split", w+1)
				ttm := profile.StartTimer()
				*r = b.splitBlock(x, fb)
				mBlockTaskSeconds.Observe(ttm.Elapsed().Seconds())
				tsp.End()
			})
		}
	}
	b.pool.RunTasks(tasks)
	for i, x := range todo {
		best := noSplits()
		for _, r := range results[i*nb : (i+1)*nb] {
			best.merge(r)
		}
		b.settle(x, best)
	}
}

// finish assembles the BuiltTree and releases remaining resources.
func (b *Builder) finish(st *buildState) *engine.BuiltTree {
	leafRows := make(map[int32]engine.RowSet)
	for id := range st.nodes {
		ns := st.nodes[id]
		b.releaseHist(ns)
		if st.t.Nodes[id].IsLeaf() {
			leafRows[int32(id)] = ns.rows
		}
		ns.rows = engine.RowSet{}
	}
	leafOf := engine.ScatterLeaves(b.ds.NumRows(), leafRows)
	return &engine.BuiltTree{Tree: st.t, LeafOf: leafOf}
}
