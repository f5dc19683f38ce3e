package serve

import (
	"math"
	"testing"

	"harpgbdt/internal/obs"
)

// TestDiffSnapshot pins the warmup-cutoff arithmetic: the diff must see
// only the samples observed between the two snapshots.
func TestDiffSnapshot(t *testing.T) {
	h := obs.NewRegistry().Histogram("serve_test_seconds", "", LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(1e-3) // warmup: fast
	}
	warm := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // steady state: slow
	}
	d := DiffSnapshot(warm, h.Snapshot())
	if d.Count != 100 {
		t.Fatalf("diff count %d", d.Count)
	}
	for i, c := range d.Counts {
		// All 100 remaining samples sit in the bucket holding 1.5 s,
		// (1.048576, 2.097152]: the warm-up bucket is emptied.
		want := int64(0)
		if i < len(d.Bounds) && d.Bounds[i] >= 1.5 && d.Bounds[i] < 3 {
			want = 100
		}
		if c != want {
			t.Fatalf("bucket %d holds %d samples after the diff, want %d", i, c, want)
		}
	}
	if math.Abs(d.Sum-150) > 1e-9 {
		t.Fatalf("diff sum %g", d.Sum)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched-layout DiffSnapshot did not panic")
		}
	}()
	DiffSnapshot(obs.HistogramSnapshot{Counts: make([]int64, 3)}, h.Snapshot())
}
