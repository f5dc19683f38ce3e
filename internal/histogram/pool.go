package histogram

import (
	"math"
	"sync"
	"sync/atomic"

	"harpgbdt/internal/gh"
	"harpgbdt/internal/sched"
)

// Pool recycles node histograms so tree building does not allocate one
// GHSum-sized slab per node. XGBoost and LightGBM both carry an equivalent
// structure; the paper's memory-footprint argument for model parallelism
// (Sec. IV) relies on bounding the number of live histograms to the active
// node set rather than the whole tree.
//
// A slab — Data, the cell set and the column views — outlives no tree:
// Release hands the pool's idle slabs to a cache shared by every pool of
// the same feature count, where the next tree of any builder on such a
// layout takes them back, and where slabs nobody takes are freed by the
// GC (the cache is a sync.Pool). Builders that train one after another,
// or side by side on folds of one dataset, then share one set of slabs,
// and a process that has stopped training gives them back.
//
// Pool is safe for concurrent Get/Put (the ASYNC mode acquires histograms
// from worker goroutines).
type Pool struct {
	layout *Layout
	cache  *sync.Pool // the idle slabs of every pool with layout.M features
	mu     sched.SpinMutex
	free   []*Hist
	// spare is free's other backing array: Release swaps the two, so that
	// neither is regrown after the first tree.
	spare []*Hist
	// held counts the slabs in use or on free; peak is its high-water mark.
	held, peak int
	// made counts the slabs Get allocated because free and the cache were
	// both empty.
	made atomic.Int64
}

// caches maps a feature count to the sync.Pool of idle slabs of that
// width: a slab's storage depends on M only, so it serves any layout of M
// features.
var caches sync.Map

func cacheFor(m int) *sync.Pool {
	c, _ := caches.LoadOrStore(m, new(sync.Pool))
	return c.(*sync.Pool)
}

// NewPool returns a pool producing histograms of the given layout.
func NewPool(l *Layout) *Pool {
	return &Pool{layout: l, cache: cacheFor(l.M)}
}

// Layout returns the pool's histogram layout.
func (p *Pool) Layout() *Layout { return p.layout }

// Get returns a histogram: one released to this pool if there is one, else
// one from the shared cache, rebound to this pool's layout, else a new one.
// It holds what its last owner left, and its cell set says where: every
// cell outside the set is +0. Whoever fills it zeroes the cells it owns
// (ResetBins in a block task, Reset for a whole histogram) right before
// scattering into them, visiting the set only, so clearing is spread over
// the tasks, costs what the last owner dirtied and touches lines about to
// be written instead of costing the caller one pass over the whole slab
// per node. The fill clears every cell of the set, whatever layout wrote
// it, which is what makes a slab of another layout of the same width safe
// to rebind.
func (p *Pool) Get() *Hist {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return h
	}
	p.held++
	p.peak = max(p.peak, p.held)
	p.mu.Unlock()
	if h, ok := p.cache.Get().(*Hist); ok {
		h.Layout = p.layout
		return h
	}
	p.made.Add(1)
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

// Release hands every histogram on the free list to the shared cache,
// where the next Get of any pool of the same feature count finds it. A
// builder calls it when a tree is done; histograms still in use stay with
// their owners, and Put after Release refills the free list.
func (p *Pool) Release() {
	p.mu.Lock()
	idle := p.free
	p.free, p.spare = p.spare, nil
	p.held -= len(idle)
	p.mu.Unlock()
	for _, h := range idle {
		p.cache.Put(h)
	}
	clear(idle) // the spare array must not keep the slabs from the GC
	p.mu.Lock()
	p.spare = idle[:0]
	p.mu.Unlock()
}

// Allocated reports the most histograms the pool has held at once, in use
// or idle on its free list: its footprint in slabs. Since Release returns
// the idle ones after every tree, that is the high-water mark of the
// largest tree, not a sum over trees.
func (p *Pool) Allocated() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}
