package histogram

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
)

// TestPool: the pool hands the same storage back, makes no promise about
// what is in it — the filler zeroes what it owns — and under harpdebug has
// poisoned it, so that reading a cell nobody zeroed cannot pass for a sum.
func TestPool(t *testing.T) {
	layout := layoutOf(4)
	p := NewPool(layout)
	h1 := p.Get()
	for i := range h1.Data {
		if !h1.Data[i].IsZero() {
			t.Fatalf("fresh histogram cell %d = %+v", i, h1.Data[i])
		}
	}
	h1.Data[0] = gh.Pair{G: 1, H: 1}
	p.Put(h1)
	h2 := p.Get()
	if h2 != h1 {
		t.Fatal("pool did not reuse histogram")
	}
	if debugTagEnabled {
		for i, c := range h2.Data {
			if !math.IsNaN(c.G) || !math.IsNaN(c.H) {
				t.Fatalf("harpdebug: released cell %d not poisoned: %+v", i, c)
			}
		}
	}
	// The filler's side of the contract, on the block it is about to write.
	h2.ResetBins(0, 1, 0, dataset.MissingBin)
	for i := range h2.Data {
		if !h2.Data[i].IsZero() {
			t.Fatalf("cell %d after ResetBins: %+v", i, h2.Data[i])
		}
	}
	h3 := p.Get()
	if h3 == h2 {
		t.Fatal("pool returned the same histogram twice")
	}
	if p.Allocated() != 2 {
		t.Fatalf("%d histograms held at once, want 2", p.Allocated())
	}
	p.Put(nil) // must not panic
}

// TestPoolDoublePutPanics: under harpdebug a second Put of a histogram
// that is already on the free list panics, after releasing the lock,
// instead of queueing one slab for two future owners.
func TestPoolDoublePutPanics(t *testing.T) {
	if !debugTagEnabled {
		t.Skip("double-Put detection is part of the harpdebug invariant layer")
	}
	p := NewPool(layoutOf(4))
	h, other := p.Get(), p.Get()
	p.Put(h)
	p.Put(other)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same histogram did not panic")
		}
		if a, b := p.Get(), p.Get(); a == b {
			t.Fatal("the free list holds one histogram twice")
		}
	}()
	p.Put(h)
}

// TestPoolConcurrentGetPut hammers the spin-mutex-guarded free list from
// many goroutines (run under -race by the race-sanitize target) and checks
// the two properties the ASYNC mode needs from the pool: no buffer is
// handed to two owners at once, and the high-water mark of buffers held
// stays bounded by the peak simultaneous demand.
func TestPoolConcurrentGetPut(t *testing.T) {
	const (
		workers = 8
		iters   = 300
		held    = 4
	)
	_, layout, _ := makeFixture(64, 4, 8, 3)
	p := NewPool(layout)

	var ownedMu sync.Mutex
	owned := make(map[*Hist]int)
	claim := func(h *Hist, w int) {
		ownedMu.Lock()
		if prev, dup := owned[h]; dup {
			ownedMu.Unlock()
			t.Errorf("pool handed one buffer to workers %d and %d at once", prev, w)
			return
		}
		owned[h] = w
		ownedMu.Unlock()
	}
	release := func(h *Hist) {
		ownedMu.Lock()
		delete(owned, h)
		ownedMu.Unlock()
		p.Put(h)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			local := make([]*Hist, 0, held)
			for i := 0; i < iters; i++ {
				h := p.Get()
				claim(h, w)
				h.Data[0].G += float64(w) // write to the owned slab
				local = append(local, h)
				if len(local) == held {
					for _, lh := range local {
						release(lh)
					}
					local = local[:0]
				}
			}
			for _, lh := range local {
				release(lh)
			}
		}(w)
	}
	wg.Wait()
	if len(owned) != 0 {
		t.Errorf("%d buffers never returned to the pool", len(owned))
	}
	if got, max := p.Allocated(), workers*held; got > max {
		t.Errorf("pool held %d histograms at once; peak simultaneous demand is %d", got, max)
	}
}

// skipIfRace skips a test that needs a Put to the shared cache to stick:
// under the race detector sync.Pool drops a random quarter of them.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
}

// TestPoolReleaseSharesSlabs: after Release, a second pool on the layout
// gets the first pool's slabs back instead of allocating. The GC is off
// for the test, since the shared cache gives idle slabs to it by design.
func TestPoolReleaseSharesSlabs(t *testing.T) {
	skipIfRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	layout := layoutOf(3, 9, 1, 250, 17, 4, 64) // a width no other test uses
	p1, p2 := NewPool(layout), NewPool(layout)
	mine := map[*Hist]bool{}
	var hs []*Hist
	for i := 0; i < 3; i++ {
		h := p1.Get()
		mine[h] = true
		hs = append(hs, h)
	}
	for _, h := range hs {
		p1.Put(h)
	}
	p1.Release()
	for i := 0; i < 3; i++ {
		if h := p2.Get(); !mine[h] {
			t.Fatalf("Get %d after Release allocated instead of taking a released slab", i)
		}
	}
	if p2.made.Load() != 0 {
		t.Fatalf("the second pool allocated %d slabs", p2.made.Load())
	}
	// Release returned p1's idle slabs; its high-water mark stays.
	if p1.Allocated() != 3 || p2.Allocated() != 3 {
		t.Fatalf("held at once: %d and %d, want 3 and 3", p1.Allocated(), p2.Allocated())
	}
}

// TestPoolReleasedSlabsReclaimable: a released slab that nobody takes is
// the GC's after two cycles, so a process that stops training gives the
// memory back; the next Get allocates.
func TestPoolReleasedSlabsReclaimable(t *testing.T) {
	layout := layoutOf(5, 2, 33, 7, 100, 8, 12, 3) // a width no other test uses
	p1, p2 := NewPool(layout), NewPool(layout)
	p1.Put(p1.Get())
	p1.Release()
	runtime.GC()
	runtime.GC()
	p2.Get()
	if got := p2.made.Load(); got != 1 {
		t.Fatalf("Get after two GC cycles allocated %d slabs, want 1", got)
	}
}

// TestPoolRebindsLayout: a slab from the cache serves a layout of the same
// width with different bin counts, rebound to it.
func TestPoolRebindsLayout(t *testing.T) {
	skipIfRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a, b := layoutOf(10, 20, 30, 40, 50, 60), layoutOf(60, 50, 40, 30, 20, 10)
	pa, pb := NewPool(a), NewPool(b)
	h := pa.Get()
	h.Reset()
	h.Data[a.Index(0, 9)] = gh.Pair{G: 1, H: 1}
	pa.Put(h)
	pa.Release()
	g := pb.Get()
	if g != h || g.Layout != b {
		t.Fatalf("got %p with layout %p; want the released slab %p rebound to %p", g, g.Layout, h, b)
	}
	g.Reset()
	if f, bin, ok := g.StrayCell(0, b.M); ok {
		t.Fatalf("cell (%d, %d) not +0 after Reset", f, bin)
	}
}

// TestPoolsShareCacheConcurrently: pools on one layout, each driven by its
// own goroutine through Get, Put and Release as a builder's trees do, never
// hand one slab to two owners at once through the shared cache.
func TestPoolsShareCacheConcurrently(t *testing.T) {
	const pools, trees, held = 4, 100, 3
	layout := layoutOf(6, 6, 6, 6, 6, 6, 6, 6, 6) // a width no other test uses
	var ownedMu sync.Mutex
	owned := make(map[*Hist]int)
	var wg sync.WaitGroup
	wg.Add(pools)
	for w := 0; w < pools; w++ {
		go func(w int) {
			defer wg.Done()
			p := NewPool(layout)
			for i := 0; i < trees; i++ {
				var hs [held]*Hist
				for j := range hs {
					hs[j] = p.Get()
					ownedMu.Lock()
					if prev, dup := owned[hs[j]]; dup {
						t.Errorf("one slab held by pools %d and %d at once", prev, w)
					}
					owned[hs[j]] = w
					ownedMu.Unlock()
					hs[j].Data[0].G += float64(w) // write to the owned slab
				}
				ownedMu.Lock()
				for _, h := range hs {
					delete(owned, h)
				}
				ownedMu.Unlock()
				for _, h := range hs {
					p.Put(h)
				}
				p.Release()
			}
		}(w)
	}
	wg.Wait()
}
