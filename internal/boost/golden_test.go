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
	harp := func(mode core.Mode, workers int, memBuf bool, ds *dataset.Dataset, opts ...func(*core.Config)) func() (engine.Builder, error) {
		return func() (engine.Builder, error) {
			cfg := core.DefaultConfig()
			cfg.Mode, cfg.Workers, cfg.UseMemBuf = mode, workers, memBuf
			for _, o := range opts {
				o(&cfg)
			}
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
		// The two other baseline presets, recorded from the stand-alone
		// engines they replace.
		{"xgbdepth-w1-higgs", thin, func() (engine.Builder, error) {
			return baseline.NewXGBHist(baseline.Config{Growth: grow.Depthwise, TreeSize: 8,
				Params: tree.DefaultSplitParams(), Workers: 1}, thin)
		}, "727f6ec5f601caa2a67866b0c6a3813135c512165d6a393d7553d30c4e385ccc"},
		{"lightgbm-v32-yfcc", fat, func() (engine.Builder, error) {
			return baseline.NewLightGBM(baseline.Config{TreeSize: 8,
				Params: tree.DefaultSplitParams(), Workers: 32, Virtual: true}, fat)
		}, "dc808136c327e40415c3d161722889376b2eb0a67dc09845ddd77e5996f34eda"},
		// The paths the rows above do not reach, recorded before FindSplit
		// was compacted, subtraction fused into it and zeroing moved into the
		// block tasks. MP bin blocks: each ⟨feature block, bin range⟩ task
		// zeroes its own cells.
		{"mp-w2-yfcc-binblock64", fat, harp(core.MP, 2, true, fat,
			func(c *core.Config) { c.BinBlockSize = 64 }), "4341bd4e304ef240a019fa755683fc38a9d3c56b55515797fc236c665d8b3a6d"},
		// Pure DP: replicas cleared on first touch, the reduce target up
		// front. One row block per node keeps every cell's sum on one worker,
		// so the bits do not depend on which worker ran which task.
		{"dp-w2-yfcc", fat, harp(core.DP, 2, true, fat,
			func(c *core.Config) { c.RowBlockSize = fat.NumRows() }), "4341bd4e304ef240a019fa755683fc38a9d3c56b55515797fc236c665d8b3a6d"},
		// 512 leaves over 2 000 rows: hundreds of nodes holding a handful of
		// rows, so most bins of most histograms are empty.
		{"sync-w2-yfcc-d10", fat, harp(core.Sync, 2, true, fat,
			func(c *core.Config) { c.TreeSize = 10 }), "b5731e942fa26d819f99c8cb021f541f2bf5e39a3a9d35a934f4bf26acb484aa"},
		{"sync-w2-yfcc-colsample", fat, harp(core.Sync, 2, true, fat,
			func(c *core.Config) { c.ColSampleByTree, c.Seed = 0.5, 7 }), "af3e53034d5e5f89a876a9a1cbcb21e04e39b117d5575494d07aa090a2dfab7d"},
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

// TestIndicatorFeatureSplits: a sparse indicator column — a value where the
// property holds, missing where it does not — has one bin, and its one split
// is present-versus-missing. The split scan used to skip every feature with
// fewer than two bins, so no engine could see it and the label it spells
// out went unlearned; this is the one place trees differ, on purpose, from
// the ones TestGoldenModels' hashes were recorded with.
func TestIndicatorFeatureSplits(t *testing.T) {
	const rows = 1000
	d := dataset.NewDense(rows, 1)
	labels := make([]float32, rows)
	for i := 0; i < rows; i++ {
		if i%3 == 0 {
			d.Set(i, 0, 1)
			labels[i] = 1
		} else {
			d.SetMissing(i, 0)
		}
	}
	ds, err := dataset.FromDense("indicator", d, labels, 256)
	if err != nil {
		t.Fatal(err)
	}
	harp := func(mode core.Mode, workers int) func() (engine.Builder, error) {
		return func() (engine.Builder, error) {
			cfg := core.DefaultConfig()
			cfg.Mode, cfg.Workers = mode, workers
			return core.NewBuilder(cfg, ds)
		}
	}
	for name, newBuilder := range map[string]func() (engine.Builder, error){
		"harp-sync":  harp(core.Sync, 2),
		"harp-async": harp(core.Async, 1),
		"xgb-hist": func() (engine.Builder, error) {
			return baseline.NewXGBHist(baseline.Config{Growth: grow.Leafwise, TreeSize: 8,
				Params: tree.DefaultSplitParams(), Workers: 1}, ds)
		},
	} {
		t.Run(name, func(t *testing.T) {
			bld, err := newBuilder()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Train(bld, ds, Config{Rounds: 3}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range res.Model.Trees {
				root := tr.Nodes[0]
				if tr.NumLeaves() != 2 || root.Feature != 0 || root.SplitBin != 0 || root.DefaultLeft {
					t.Fatalf("tree %d: %d leaves, root %+v; want present (bin 0) left, missing right", i, tr.NumLeaves(), root)
				}
				// The present rows carry the positive label: the left leaf
				// pushes the margin up, the right one down.
				if l, r := tr.Nodes[root.Left], tr.Nodes[root.Right]; l.Count != 334 || r.Count != 666 || !(l.Weight > 0 && r.Weight < 0) {
					t.Fatalf("tree %d: left %+v right %+v", i, l, r)
				}
			}
		})
	}
}
