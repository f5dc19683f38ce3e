package histogram

import (
	"math"

	"harpgbdt/internal/gh"
	"harpgbdt/internal/sched"
)

// Pool recycles node histograms so tree building does not allocate one
// GHSum-sized slab per node. XGBoost and LightGBM both carry an equivalent
// structure; the paper's memory-footprint argument for model parallelism
// (Sec. IV) relies on bounding the number of live histograms to the active
// node set rather than the whole tree.
//
// Pool is safe for concurrent Get/Put (the ASYNC mode acquires histograms
// from worker goroutines).
type Pool struct {
	layout *Layout
	mu     sched.SpinMutex
	free   []*Hist
	// allocated counts every histogram ever created, for footprint
	// accounting in tests and reports.
	allocated int
}

// NewPool returns a pool producing histograms of the given layout.
func NewPool(l *Layout) *Pool {
	return &Pool{layout: l}
}

// Layout returns the pool's histogram layout.
func (p *Pool) Layout() *Layout { return p.layout }

// Get returns a histogram, reusing a released one when available. It holds
// what its last owner left, and its cell set says where: every cell outside
// the set is +0. Whoever fills it zeroes the cells it owns (ResetBins in a
// block task, Reset for a whole histogram) right before scattering into
// them, visiting the set only, so clearing is spread over the tasks, costs
// what the last owner dirtied and touches lines about to be written
// instead of costing the caller one pass over the whole slab per node.
func (p *Pool) Get() *Hist {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return h
	}
	p.allocated++
	p.mu.Unlock()
	return NewHist(p.layout)
}

// Put releases a histogram back to the pool, cell set and all. The
// histogram must not be used afterwards. Under the harpdebug tag it is
// filled with NaN and every cell joins its set, so a cell its next owner
// reads without having zeroed it fails the invariant layer's histogram
// totals instead of passing for a stale sum; and putting a histogram
// that is already on the free list panics instead of queueing it twice,
// which would hand one slab to two nodes.
func (p *Pool) Put(h *Hist) {
	if h == nil {
		return
	}
	if debugTagEnabled {
		nan := math.NaN()
		for i := range h.Data {
			h.Data[i] = gh.Pair{G: nan, H: nan}
		}
		for i := range h.set {
			h.set[i] = ^uint64(0)
		}
	}
	double := false
	p.mu.Lock()
	if debugTagEnabled {
		for _, f := range p.free {
			double = double || f == h
		}
	}
	if !double {
		p.free = append(p.free, h) //harplint:ignore spinscope -- free-list append; capacity reaches steady state after the first tree, so this almost never allocates
	}
	p.mu.Unlock()
	if double {
		panic("histogram: Pool.Put of a histogram that is already in the pool")
	}
}

// Allocated reports how many distinct histograms the pool has created.
func (p *Pool) Allocated() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocated
}
