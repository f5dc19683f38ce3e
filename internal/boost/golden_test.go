package boost

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"harpgbdt/internal/baseline"
	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

// TestGoldenModels pins the trained model bytes of the deterministic
// engines. The hashes were recorded before the histogram layout and the
// row partition were rewritten (fixed-stride missing cell, in-place
// arena); a kernel change that claims bit-identical trees must leave them
// alone, and one that moves them on purpose must say which precision or
// tie-break changed.
func TestGoldenModels(t *testing.T) {
	const rounds = 5
	synthDS := func(spec synth.Spec, rows, features int) *dataset.Dataset {
		ds, err := synth.Make(synth.Config{Spec: spec, Rows: rows, Features: features, Seed: 18}, 256)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	fat := synthDS(synth.YFCCLike, 2000, 64)   // 69 % of the binned cells are missing
	thin := synthDS(synth.HiggsLike, 5000, 28) // nearly dense
	harp := func(mode core.Mode, workers int, memBuf bool, ds *dataset.Dataset) func() (engine.Builder, error) {
		return func() (engine.Builder, error) {
			cfg := core.DefaultConfig()
			cfg.Mode, cfg.Workers, cfg.UseMemBuf = mode, workers, memBuf
			return core.NewBuilder(cfg, ds)
		}
	}
	cases := []struct {
		name string
		ds   *dataset.Dataset
		bld  func() (engine.Builder, error)
		want string
	}{
		{"sync-w2-yfcc-membuf", fat, harp(core.Sync, 2, true, fat),
			"4341bd4e304ef240a019fa755683fc38a9d3c56b55515797fc236c665d8b3a6d"},
		{"sync-w2-yfcc-gather", fat, harp(core.Sync, 2, false, fat),
			"4341bd4e304ef240a019fa755683fc38a9d3c56b55515797fc236c665d8b3a6d"},
		{"async-w1-higgs-membuf", thin, harp(core.Async, 1, true, thin),
			"4426cb5fe8133a898cf0ddc7619968a5d8163ae334b3408b58854fc702dded35"},
		{"async-w1-higgs-gather", thin, harp(core.Async, 1, false, thin),
			"4426cb5fe8133a898cf0ddc7619968a5d8163ae334b3408b58854fc702dded35"},
		{"xgbhist-w1-higgs", thin, func() (engine.Builder, error) {
			return baseline.NewXGBHist(baseline.Config{Growth: grow.Leafwise, TreeSize: 8,
				Params: tree.DefaultSplitParams(), Workers: 1}, thin)
		}, "4426cb5fe8133a898cf0ddc7619968a5d8163ae334b3408b58854fc702dded35"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bld, err := tc.bld()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Train(bld, tc.ds, Config{Rounds: rounds}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Model.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("model hash %s, want %s", got, tc.want)
			}
		})
	}
}
