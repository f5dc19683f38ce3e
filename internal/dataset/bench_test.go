package dataset_test

import (
	"testing"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/synth"
)

// BenchmarkFromDense times the whole set-up layer, cuts and bins, on the
// benchmark workloads' two input shapes: thin (HiggsLike, 28 features) and
// fat (YFCCLike, 512 features).
func BenchmarkFromDense(b *testing.B) {
	for _, w := range []struct {
		name string
		spec synth.Spec
		rows int
	}{
		{"higgs-100k", synth.HiggsLike, 100_000},
		{"yfcc-10k", synth.YFCCLike, 10_000},
	} {
		d, labels, err := synth.Generate(synth.Config{Spec: w.spec, Rows: w.rows, Seed: 2019})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.name, func(b *testing.B) {
			b.SetBytes(int64(len(d.Values)) * 4)
			for i := 0; i < b.N; i++ {
				if _, err := dataset.FromDense(w.name, d, labels, 256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
