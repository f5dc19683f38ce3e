package boost

// Checkpoint/resume for the boosting loop. Every Config.CheckpointEvery
// rounds Train atomically persists the complete loop state — the model so
// far, the training margins, the subsampling RNG state and the early-stop
// bookkeeping — so a killed run restarted with Config.Resume continues
// from the last checkpoint and finishes with bit-identical predictions.
//
// Training margins are persisted rather than replayed from the trees, so
// resume costs one copy of N floats instead of a walk of every tree for
// every training row. Test-set margins, by contrast, are computed with
// tree.PredictRowRaw, so resume replays them from the checkpointed trees
// in the exact order training would have used.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"harpgbdt/internal/obs"
	"harpgbdt/internal/safeio"
)

// CheckpointVersion is the on-disk format version of Checkpoint.
const CheckpointVersion = 1

// checkpointName is the file Train maintains inside Config.CheckpointDir.
const checkpointName = "checkpoint.json"

// Checkpoint is the full persisted state of an interrupted boosting run.
type Checkpoint struct {
	Version int `json:"version"`
	// Round is the number of completed boosting rounds (== len(Model.Trees)).
	Round int    `json:"round"`
	Model *Model `json:"model"`
	// Margins are the raw training margins after Round rounds. float64
	// survives the JSON round trip bit-exactly (Go emits the shortest
	// representation that parses back to the same value).
	Margins []float64 `json:"margins"`
	// HasRNG/RNGState capture the subsampling generator mid-sequence.
	HasRNG   bool      `json:"has_rng,omitempty"`
	RNGState [4]uint64 `json:"rng_state,omitempty"`
	// Early-stopping bookkeeping. BestSet distinguishes "no evaluation has
	// improved yet" (monitored best is -Inf, which JSON cannot carry).
	BestSet      bool    `json:"best_set,omitempty"`
	BestMetric   float64 `json:"best_metric,omitempty"`
	SinceBest    int     `json:"since_best,omitempty"`
	StoppedEarly bool    `json:"stopped_early,omitempty"`
	// DistNodes pins the simulated cluster size of the builder that wrote
	// the checkpoint (engine.ClusterSized; 0 = single-node builder). Resume
	// rejects a mismatch: a different sharding would silently change the
	// simulated cost decomposition the run is measuring.
	DistNodes int `json:"dist_nodes,omitempty"`
	// Result bookkeeping so the resumed Result equals the uninterrupted one.
	History        []EvalPoint `json:"history,omitempty"`
	PerTreeNanos   []int64     `json:"per_tree_nanos,omitempty"`
	TrainTimeNanos int64       `json:"train_time_nanos"`
	TotalLeaves    int         `json:"total_leaves"`
	MaxDepth       int         `json:"max_depth"`
}

// Validate checks the structural invariants resume relies on.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("boost: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.Model == nil {
		return fmt.Errorf("boost: checkpoint has no model")
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("boost: checkpoint model: %w", err)
	}
	if c.Round != len(c.Model.Trees) {
		return fmt.Errorf("boost: checkpoint claims %d rounds but holds %d trees", c.Round, len(c.Model.Trees))
	}
	if len(c.PerTreeNanos) != c.Round {
		return fmt.Errorf("boost: checkpoint has %d per-tree times for %d rounds", len(c.PerTreeNanos), c.Round)
	}
	for i, m := range c.Margins {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("boost: checkpoint margin %v at row %d not finite", m, i)
		}
	}
	return nil
}

// CheckpointPath returns the checkpoint file Train maintains in dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, checkpointName) }

var mCheckpoints = obs.DefaultRegistry().Counter("boost_checkpoints_total",
	"Checkpoints persisted by the boosting loop")

// SaveCheckpoint atomically persists a checkpoint (temp file + fsync +
// rename, CRC32 footer): a crash mid-save leaves the previous checkpoint
// intact, and a torn write is detected on load instead of resuming from
// garbage.
func SaveCheckpoint(path string, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := safeio.WriteFile(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(c)
	}); err != nil {
		return err
	}
	mCheckpoints.Inc()
	return nil
}

// LoadCheckpoint reads and validates a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	payload, _, err := safeio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("boost: checkpoint %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// trainState is the mutable loop state Train threads through rounds; a
// checkpoint is a snapshot of it plus the model.
type trainState struct {
	round      int
	margins    []float64
	bestMetric float64
	sinceBest  int
	res        *Result
}

// snapshot captures the loop state after st.round completed rounds.
// distNodes is the builder's simulated cluster size (0 for single-node
// builders); it is pinned into the checkpoint.
func (st *trainState) snapshot(model *Model, rngState *[4]uint64, distNodes int) *Checkpoint {
	per := make([]int64, len(st.res.PerTree))
	for i, d := range st.res.PerTree {
		per[i] = d.Nanoseconds()
	}
	c := &Checkpoint{
		Version:        CheckpointVersion,
		Round:          st.round,
		DistNodes:      distNodes,
		Model:          model,
		Margins:        st.margins,
		SinceBest:      st.sinceBest,
		StoppedEarly:   st.res.StoppedEarly,
		History:        st.res.History,
		PerTreeNanos:   per,
		TrainTimeNanos: st.res.TrainTime.Nanoseconds(),
		TotalLeaves:    st.res.TotalLeaves,
		MaxDepth:       st.res.MaxDepth,
	}
	if !math.IsInf(st.bestMetric, -1) {
		c.BestSet, c.BestMetric = true, st.bestMetric
	}
	if rngState != nil {
		c.HasRNG, c.RNGState = true, *rngState
	}
	return c
}

// restore applies a loaded checkpoint to the loop state, replacing the
// fresh-start initialization. It verifies the checkpoint matches the
// current dataset/config shape — including the builder's simulated
// cluster size — and returns the restored model.
func (st *trainState) restore(c *Checkpoint, cfg Config, nRows, nFeatures, distNodes int) (*Model, error) {
	if len(c.Margins) != nRows {
		return nil, fmt.Errorf("boost: checkpoint has %d margins for %d rows", len(c.Margins), nRows)
	}
	if c.DistNodes != distNodes {
		return nil, fmt.Errorf("boost: checkpoint was written by a %d-node cluster, resuming with %d (dist-nodes must match the run that wrote the checkpoint; 0 means single-node)",
			c.DistNodes, distNodes)
	}
	if c.Model.NumFeatures != nFeatures {
		return nil, fmt.Errorf("boost: checkpoint model has %d features, dataset has %d", c.Model.NumFeatures, nFeatures)
	}
	if c.Model.Objective != cfg.Objective {
		return nil, fmt.Errorf("boost: checkpoint objective %q, config wants %q", c.Model.Objective, cfg.Objective)
	}
	subsampling := cfg.Subsample > 0 && cfg.Subsample < 1
	if subsampling != c.HasRNG {
		return nil, fmt.Errorf("boost: checkpoint subsampling state (rng=%v) does not match config (subsample=%g)", c.HasRNG, cfg.Subsample)
	}
	st.round = c.Round
	st.margins = c.Margins
	st.sinceBest = c.SinceBest
	st.bestMetric = math.Inf(-1)
	if c.BestSet {
		st.bestMetric = c.BestMetric
	}
	st.res.Model = c.Model
	st.res.History = c.History
	st.res.StoppedEarly = c.StoppedEarly
	st.res.TrainTime = time.Duration(c.TrainTimeNanos)
	st.res.PerTree = make([]time.Duration, len(c.PerTreeNanos))
	for i, ns := range c.PerTreeNanos {
		st.res.PerTree[i] = time.Duration(ns)
	}
	st.res.TotalLeaves = c.TotalLeaves
	st.res.MaxDepth = c.MaxDepth
	return c.Model, nil
}

// maybeResume loads the checkpoint from cfg.CheckpointDir when resuming.
// A missing checkpoint file is not an error: the run simply starts fresh
// (first run with -resume always set, or a crash before the first save).
func maybeResume(cfg Config) (*Checkpoint, error) {
	if cfg.CheckpointDir == "" || !cfg.Resume {
		return nil, nil
	}
	c, err := LoadCheckpoint(CheckpointPath(cfg.CheckpointDir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return c, err
}
