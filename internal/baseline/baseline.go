// Package baseline names the comparison systems of the paper's evaluation.
// They are not engines of their own: as Sec. III says, XGBoost's hist
// method and LightGBM fall out as special configurations of the block
// design ⟨row_blk, node_blk, bin_blk, feature_blk⟩, so each is a
// core.Builder preset that keeps the system's name:
//
//   - XGBHist (xgb-depth, xgb-leaf) — data parallelism over row blocks
//     with per-worker histogram replicas and a reduce, one node per
//     batch (K = 1), in depthwise or leafwise growth.
//   - LightGBM — feature-wise model parallelism (feature blocks of
//     width 1), one node per batch, leafwise only.
//
// Neither uses MemBuf. One node per batch is what makes the
// synchronization count grow with the node count, O(2^D): the overhead
// the paper measures in Fig. 4 and Table I.
package baseline

import (
	"fmt"

	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/tree"
)

// Config configures a baseline preset.
type Config struct {
	// Growth is the tree growth policy (XGBHist takes either; LightGBM is
	// leafwise only).
	Growth grow.Method
	// TreeSize is the paper's D (leaf budget 2^(D-1); depth cap D-1 under
	// depthwise growth). 0 defaults to 8.
	TreeSize int
	// Params are the split regularization hyper-parameters.
	Params tree.SplitParams
	// Workers is the parallel width (0 = GOMAXPROCS, or 32 in virtual
	// mode).
	Workers int
	// Virtual runs the preset on the simulated parallel machine (see
	// core.Config.Virtual).
	Virtual bool
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.TreeSize < 0 || c.TreeSize > 30 {
		return fmt.Errorf("baseline: tree size %d out of range", c.TreeSize)
	}
	return nil
}

// Preset is a core.Builder under a baseline's name.
type Preset struct {
	*core.Builder
	name string
}

// Name implements engine.Builder.
func (p *Preset) Name() string { return p.name }

// NewXGBHist returns XGBoost's tree_method=hist: cfg.Growth selects
// xgb-depth (grow.Depthwise) or xgb-leaf (grow.Leafwise).
func NewXGBHist(cfg Config, ds *dataset.Dataset) (*Preset, error) {
	name := "xgb-leaf"
	if cfg.Growth == grow.Depthwise {
		name = "xgb-depth"
	}
	return newPreset(name, cfg, core.Config{Mode: core.DP, K: 1, Growth: cfg.Growth}, ds)
}

// NewLightGBM returns LightGBM's feature-parallel design. Growth is always
// leafwise (the only mode LightGBM supports, as the paper notes); any
// configured Growth is overridden.
func NewLightGBM(cfg Config, ds *dataset.Dataset) (*Preset, error) {
	return newPreset("lightgbm", cfg, core.Config{Mode: core.MP, K: 1, Growth: grow.Leafwise, FeatureBlockSize: 1}, ds)
}

func newPreset(name string, cfg Config, c core.Config, ds *dataset.Dataset) (*Preset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c.TreeSize, c.Params, c.Workers, c.Virtual = cfg.TreeSize, cfg.Params, cfg.Workers, cfg.Virtual
	b, err := core.NewBuilder(c, ds)
	if err != nil {
		return nil, err
	}
	return &Preset{Builder: b, name: name}, nil
}
