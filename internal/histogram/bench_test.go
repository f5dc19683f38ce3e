package histogram

// Kernel micro-benchmarks: the accumulate variants of Sec. IV-E (gathered
// gradients versus MemBuf replicas, full bins versus bin blocks), replica
// reduction, subtraction and split enumeration.

import (
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/tree"
)

func benchFixture(b *testing.B, n, m int) (*dataset.BinnedMatrix, *dataset.ColumnBlocks, *Layout, gh.Buffer, gh.MemBuf) {
	b.Helper()
	bm, layout, grad := makeFixture(n, m, 64, 3)
	rows := allRows(n)
	return bm, dataset.NewColumnBlocks(bm, 8), layout, grad, gh.BuildMemBuf(rows, grad)
}

func BenchmarkAccumulateRowsGathered(b *testing.B) {
	bm, _, layout, grad, _ := benchFixture(b, 20000, 16)
	rows := allRows(20000)
	h := NewHist(layout)
	b.SetBytes(int64(20000 * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.AccumulateRows(bm, grad, rows, 0, 16)
	}
}

func BenchmarkAccumulateMemBuf(b *testing.B) {
	bm, _, layout, _, mb := benchFixture(b, 20000, 16)
	h := NewHist(layout)
	b.SetBytes(int64(20000 * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.AccumulateMemBuf(bm, mb, 0, 16)
	}
}

func BenchmarkAccumulatePanelMemBuf(b *testing.B) {
	_, blocks, layout, _, mb := benchFixture(b, 20000, 16)
	h := NewHist(layout)
	b.SetBytes(int64(20000 * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for blk := 0; blk < blocks.NumBlocks(); blk++ {
			lo, hi, panel := blocks.Block(blk)
			h.AccumulatePanelRows(panel, hi-lo, mb, lo, hi)
		}
	}
}

func BenchmarkAccumulatePanelBinRange(b *testing.B) {
	_, blocks, layout, _, mb := benchFixture(b, 20000, 16)
	h := NewHist(layout)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for blk := 0; blk < blocks.NumBlocks(); blk++ {
			lo, hi, panel := blocks.Block(blk)
			h.AccumulatePanelRowsBinRange(panel, hi-lo, mb, lo, hi, 0, 32)
			h.AccumulatePanelRowsBinRange(panel, hi-lo, mb, lo, hi, 32, 255)
		}
	}
}

func BenchmarkReplicaReduce(b *testing.B) {
	_, _, layout, _, _ := benchFixture(b, 100, 64)
	target := NewHist(layout)
	replicas := make([]*Hist, 8)
	for i := range replicas {
		replicas[i] = NewHist(layout)
		for j := range replicas[i].Data {
			replicas[i].Data[j] = gh.Pair{G: 1, H: 1}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.Reset()
		for _, r := range replicas {
			target.AddHist(r)
		}
	}
}

func BenchmarkSubtraction(b *testing.B) {
	_, _, layout, _, _ := benchFixture(b, 100, 64)
	parent := NewHist(layout)
	child := NewHist(layout)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parent.SubHist(child)
	}
}

// BenchmarkFindBestSplit times the split scan at both ends of what the
// occupancy compaction trades: a full histogram (every bin of 16 x 64 holds
// rows; the listing pass is pure overhead) and a small node of a wide layout
// (255 bins per feature, about 5 % of them occupied; the scan should cost
// what the node holds).
func BenchmarkFindBestSplit(b *testing.B) {
	params := tree.DefaultSplitParams()
	b.Run("dense", func(b *testing.B) {
		bm, _, layout, grad, _ := benchFixture(b, 20000, 16)
		h := NewHist(layout)
		h.AccumulateRows(bm, grad, allRows(20000), 0, 16)
		total := grad.Sum()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkSplit = h.FindBestSplit(params, total, 0, 16)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		const m, occupied = 16, 13 // 13 of 255 bins
		nbins := make([]int32, m)
		for f := range nbins {
			nbins[f] = 255
		}
		h := NewHist(layoutOf(nbins...))
		var total gh.Pair
		for f := 0; f < m; f++ {
			for k := 0; k < occupied; k++ {
				p := gh.Pair{G: float64(k%5-2) / 3, H: float64(1+k%3) / 7}
				h.cols[f][uint8((f*7+k*19)%255)].Add(p)
				if f == 0 {
					total.Add(p)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkSplit = h.FindBestSplit(params, total, 0, m)
		}
	})
}

var sinkSplit tree.SplitInfo
