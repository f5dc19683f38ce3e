// Package core implements the paper's contribution: the HarpGBDT tree
// builder with TopK growth, block-wise parallelism over
// ⟨row, node, bin, feature⟩ blocks, the DP/MP/SYNC/ASYNC parallel modes,
// and the MemBuf and histogram-subtraction memory optimizations.
//
// # Parallel structure
//
// Every boosting round builds one tree. The builder pops the top K
// candidate leaves from the growth queue and processes the whole batch
// with three barrier-separated phases (ApplySplit, BuildHist, FindSplit),
// so the number of synchronizations per tree is O(L/K) instead of the
// O(L) of leaf-by-leaf engines:
//
//   - DP (data parallelism): BuildHist tasks are ⟨node, row block, feature
//     block⟩ cubes accumulating into per-worker histogram replicas that are
//     reduced afterwards; node_blk_size nodes share one parallel region, so
//     regions per batch = K / node_blk_size (this is the "for-loops drop
//     from L to L/H" of Sec. IV-D).
//   - MP (model parallelism): BuildHist tasks are ⟨node group, feature
//     block, bin block⟩ cubes writing directly into the owning node's
//     GHSum region — conflict-free, no replicas, one region per batch.
//   - SYNC: the mixed mode (DP, MP, DP): batches with fewer nodes than
//     workers run the DP kernel (enough row-level parallelism), larger
//     batches run MP.
//   - ASYNC: the loosely-coupled TopK mode: K workers pop candidates from a
//     spin-mutex-guarded shared queue and each processes a whole node
//     (partition, hist, split) privately; the only barrier is at tree end.
package core

import (
	"fmt"

	"harpgbdt/internal/grow"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/tree"
)

// Mode selects the parallel design (Table II of the paper).
type Mode int

const (
	// DP is pure data parallelism (row-partitioned BuildHist with replica
	// reduction).
	DP Mode = iota
	// MP is pure model parallelism (feature/bin/node-partitioned BuildHist
	// with conflict-free writes).
	MP
	// Sync is the phase-mixed mode (DP, MP, DP).
	Sync
	// Async is node-level parallelism over a shared queue with no
	// inter-node barriers.
	Async
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case DP:
		return "DP"
	case MP:
		return "MP"
	case Sync:
		return "SYNC"
	case Async:
		return "ASYNC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config are the HarpGBDT system parameters (Table IV) plus the tree
// hyper-parameters shared with the baselines.
type Config struct {
	// Mode selects the parallel design.
	Mode Mode
	// K is the number of candidates popped per batch (TopK growth). 0
	// defaults to 1 (standard leafwise) under Leafwise growth and to "all"
	// under Depthwise.
	K int
	// Growth orders the candidate queue (grow.Leafwise or grow.Depthwise).
	Growth grow.Method
	// TreeSize is the paper's D: the tree is limited to 2^(D-1) leaves; in
	// depthwise growth the depth is also limited to D-1 so a full tree has
	// 2^D - 1 nodes. 0 defaults to 8.
	TreeSize int
	// MaxDepth additionally caps node depth in leafwise/TopK growth
	// (0 = unlimited, the LightGBM default the paper uses).
	MaxDepth int
	// RowBlockSize is the DP row-block length. 0 defaults to ceil(N/T).
	RowBlockSize int
	// NodeBlockSize groups that many nodes per DP parallel region / per MP
	// task. 0 defaults to 1.
	NodeBlockSize int
	// FeatureBlockSize is the feature-block width. 0 defaults to all
	// features (pure data parallelism); 1 is classic feature-wise
	// parallelism.
	FeatureBlockSize int
	// BinBlockSize splits each feature's bins into ranges of this size for
	// MP tasks. 0 or >= 256 disables bin-level parallelism.
	BinBlockSize int
	// UseMemBuf enables the (rowid, g, h) gradient-replica row lists.
	UseMemBuf bool
	// DisableSubtraction turns off the parent-minus-child histogram trick
	// (used by ablation benches; the trick is on by default).
	DisableSubtraction bool
	// Params are the split regularization hyper-parameters.
	Params tree.SplitParams
	// Workers is the parallel width. 0 defaults to GOMAXPROCS (real mode)
	// or 32, the paper's thread count (virtual mode).
	Workers int
	// ColSampleByTree in (0, 1) restricts each tree's split search to a
	// random feature fraction (column subsampling). 0 or 1 disables.
	ColSampleByTree float64
	// Seed drives the column-sampling RNG (per-tree masks advance
	// deterministically from it).
	Seed uint64
	// Virtual runs the engine on the simulated parallel machine
	// (sched.NewVirtualPool): kernels execute serially, and a
	// list-scheduling replay of their measured times computes the parallel
	// timing. The times are clock readings, so the replayed schedule, and
	// with it the order in which virtual ASYNC workers claim nodes, can
	// differ from run to run. This is the substitute for the paper's
	// 36-core Xeon on hosts with few cores.
	Virtual bool
	// Perf enables the per-worker wait-state accounting (internal/perf):
	// the builder attaches a perf.Accounting to its pool and attributes
	// every worker's time to Work / BarrierWait / SpinWait / QueueWait /
	// Idle, feeding the parallel-efficiency reports. Off by default; the
	// disabled cost is a nil check per instrumentation site.
	Perf bool
	// Cost overrides the virtual machine's cost model (zero = defaults).
	Cost sched.CostModel
}

// DefaultConfig mirrors the paper's HarpGBDT defaults: leafwise TopK with
// K=32, ASYNC mode, feature blocks of 4, node blocks of 32, MemBuf on.
func DefaultConfig() Config {
	return Config{
		Mode:             Async,
		K:                32,
		Growth:           grow.Leafwise,
		TreeSize:         8,
		FeatureBlockSize: 4,
		NodeBlockSize:    32,
		UseMemBuf:        true,
		Params:           tree.DefaultSplitParams(),
	}
}

// MaxLeaves returns the leaf budget 2^(D-1).
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

// DepthLimit returns the effective depth cap (0 = none).
func (c Config) DepthLimit() int {
	if c.Growth == grow.Depthwise {
		d := c.TreeSize
		if d <= 0 {
			d = 8
		}
		return d - 1
	}
	return c.MaxDepth
}

// EffectiveK returns the batch size actually used.
func (c Config) EffectiveK() int {
	if c.K > 0 {
		return c.K
	}
	if c.Growth == grow.Depthwise {
		return 1 << 30 // whole level
	}
	return 1
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Mode < DP || c.Mode > Async {
		return fmt.Errorf("core: invalid mode %d", int(c.Mode))
	}
	if c.K < 0 {
		return fmt.Errorf("core: negative K %d", c.K)
	}
	if c.TreeSize < 0 || c.TreeSize > 30 {
		return fmt.Errorf("core: tree size %d out of range [0,30]", c.TreeSize)
	}
	if c.RowBlockSize < 0 || c.NodeBlockSize < 0 || c.FeatureBlockSize < 0 || c.BinBlockSize < 0 {
		return fmt.Errorf("core: negative block size")
	}
	if c.MaxDepth < 0 {
		return fmt.Errorf("core: negative max depth %d", c.MaxDepth)
	}
	if c.Params.Lambda < 0 || c.Params.MinChildWeight < 0 {
		return fmt.Errorf("core: negative regularization")
	}
	if c.ColSampleByTree < 0 || c.ColSampleByTree > 1 {
		return fmt.Errorf("core: colsample_bytree %g out of [0, 1]", c.ColSampleByTree)
	}
	return nil
}
