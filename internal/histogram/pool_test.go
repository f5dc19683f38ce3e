package histogram

import (
	"math"
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
		t.Fatalf("allocated = %d", p.Allocated())
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
// handed to two owners at once, and the allocation count stays bounded by
// the peak number of simultaneously held buffers.
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
		t.Errorf("pool allocated %d histograms; peak simultaneous demand is %d", got, max)
	}
}
