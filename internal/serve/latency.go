package serve

import "harpgbdt/internal/obs"

// LatencyBuckets are the log2 latency buckets of every serving
// histogram: 1µs doubling up to ~33s. Factor-2 buckets bound the
// error of any quantile read off them to one doubling of the exact
// sample quantile.
var LatencyBuckets = obs.ExpBuckets(1e-6, 2, 26)

// BatchRowBuckets are the power-of-two buckets of the batch-size
// distribution (1 .. 4096 rows).
var BatchRowBuckets = obs.ExpBuckets(1, 2, 13)

// DiffSnapshot subtracts an earlier snapshot of the same histogram from
// a later one, bucket by bucket, so a measurement window can exclude
// its warm-up: (end - start) covers only the requests in between.
// Panics when the snapshots have different bucket layouts.
func DiffSnapshot(earlier, later obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(earlier.Counts) != len(later.Counts) {
		panic("serve: DiffSnapshot on histograms with different bucket layouts")
	}
	d := obs.HistogramSnapshot{
		Bounds: append([]float64(nil), later.Bounds...),
		Counts: make([]int64, len(later.Counts)),
		Count:  later.Count - earlier.Count,
		Sum:    later.Sum - earlier.Sum,
	}
	for i := range d.Counts {
		d.Counts[i] = later.Counts[i] - earlier.Counts[i]
	}
	return d
}
