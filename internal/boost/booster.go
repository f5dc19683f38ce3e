package boost

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/fault"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/metrics"
	"harpgbdt/internal/objective"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

// Config controls the boosting loop. The defaults mirror the paper's
// training parameters (learning_rate = 0.1, logistic loss).
type Config struct {
	// Rounds is the number of trees to train.
	Rounds int
	// LearningRate is the shrinkage factor applied to every leaf.
	LearningRate float64
	// Objective names the loss ("binary:logistic", "reg:squarederror").
	Objective string
	// EvalEvery records an evaluation point every that many rounds
	// (0 disables evaluation; 1 evaluates after every tree).
	EvalEvery int
	// EarlyStopRounds stops training when the monitored AUC (test AUC when
	// a test set is supplied, train AUC otherwise) has not improved over
	// the best seen for that many consecutive evaluation points
	// (0 disables). Requires EvalEvery > 0.
	EarlyStopRounds int
	// Subsample in (0, 1) trains each tree on a random row fraction
	// (stochastic gradient boosting; excluded rows contribute zero
	// gradients to that tree). 0 or 1 disables.
	Subsample float64
	// Weights optionally assigns a non-negative instance weight per
	// training row (scales both gradient components).
	Weights []float32
	// Seed drives the subsampling RNG.
	Seed uint64
	// Callbacks observe the boosting loop (per-round hooks); see Callback.
	// The obs-backed callback from NewObsCallback publishes spans, metrics
	// and live progress.
	Callbacks []Callback
	// Ctx, when non-nil, cancels training: the worker pool stops handing
	// out work and Train returns the context's error between rounds.
	Ctx context.Context
	// CheckpointDir, when non-empty, makes Train persist a checkpoint
	// (model + full loop state) there every CheckpointEvery rounds.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in rounds (default 1 when
	// CheckpointDir is set).
	CheckpointEvery int
	// Resume makes Train continue from the checkpoint in CheckpointDir if
	// one exists (a fresh start otherwise). The resumed run produces
	// bit-identical predictions to an uninterrupted one.
	Resume bool
	// RunID correlates the run's structured log events (the "run" key).
	// Empty selects a fresh unique id.
	RunID string
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 100
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Objective == "" {
		c.Objective = "binary:logistic"
	}
	if c.CheckpointDir != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.RunID == "" {
		// Generated in obs (not here) so the deterministic training
		// packages stay free of direct clock reads.
		c.RunID = obs.NewRunID()
	}
	return c
}

// ErrStopped is returned by Train when the pool was stopped (Stop or a
// cancelled Config.Ctx) mid-training.
var ErrStopped = errors.New("boost: training stopped")

// pointRound is the registered injection point at the top of every
// boosting round.
var pointRound = fault.RegisterPoint("boost.round",
	"fires at the start of a boosting round, before gradients are computed")

// cancelCause returns the reason training should stop, or nil.
func cancelCause(cfg Config, pool *sched.Pool) error {
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return cfg.Ctx.Err()
	}
	if pool.Stopped() {
		return ErrStopped
	}
	return nil
}

// buildTreeSafe runs one engine round, converting panics — a worker
// goroutine's recovered *sched.PanicError rethrown at the region barrier,
// or a panic on the orchestrator itself — into ordinary errors, so a
// crashing engine fails the round instead of the process.
func buildTreeSafe(b engine.Builder, grad gh.Buffer) (bt *engine.BuiltTree, err error) {
	defer func() {
		if r := recover(); r != nil {
			bt, err = nil, sched.AsPanicError(r)
		}
	}()
	return b.BuildTree(grad)
}

// EvalPoint is one convergence-curve sample.
type EvalPoint struct {
	Round    int
	Elapsed  time.Duration
	TrainAUC float64
	TestAUC  float64
}

// Result bundles the trained model with the measurements the experiments
// consume.
type Result struct {
	Model *Model
	// History holds the recorded evaluation points.
	History []EvalPoint
	// TrainTime is the total tree-building wall time (data loading and
	// evaluation excluded, per the paper's metric).
	TrainTime time.Duration
	// PerTree holds each round's tree-building time.
	PerTree []time.Duration
	// TotalLeaves and MaxDepth summarize the grown trees.
	TotalLeaves int
	MaxDepth    int
	// StoppedEarly reports whether early stopping ended training before
	// Rounds trees.
	StoppedEarly bool
}

// AvgTreeTime is the paper's efficiency metric: mean training time per tree.
func (r *Result) AvgTreeTime() time.Duration {
	if len(r.PerTree) == 0 {
		return 0
	}
	return r.TrainTime / time.Duration(len(r.PerTree))
}

// Report assembles the profiling report for the run.
func (r *Result) Report(b engine.Builder) profile.Report {
	return profile.Report{
		Trainer:   b.Name(),
		Workers:   b.Pool().Workers(),
		Elapsed:   r.TrainTime,
		Breakdown: b.Profile(),
		Sched:     b.Pool().Stats(),
		Trees:     len(r.PerTree),
		Leaves:    r.TotalLeaves,
		MaxDepth:  r.MaxDepth,
	}
}

// Train runs the boosting loop with the given tree builder. testX/testY are
// optional (nil disables test evaluation).
func Train(b engine.Builder, ds *dataset.Dataset, cfg Config, testX *dataset.Dense, testY []float32) (*Result, error) {
	cfg = cfg.withDefaults()
	obj, err := objective.New(cfg.Objective)
	if err != nil {
		return nil, err
	}
	if cfg.Rounds < 0 {
		return nil, fmt.Errorf("boost: negative rounds %d", cfg.Rounds)
	}
	if cfg.Subsample < 0 || cfg.Subsample > 1 {
		return nil, fmt.Errorf("boost: subsample %g out of (0, 1]", cfg.Subsample)
	}
	if cfg.EarlyStopRounds > 0 && cfg.EvalEvery <= 0 {
		return nil, fmt.Errorf("boost: early stopping requires EvalEvery > 0")
	}
	n := ds.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("boost: empty dataset")
	}
	if len(cfg.Weights) > 0 {
		if len(cfg.Weights) != n {
			return nil, fmt.Errorf("boost: %d weights for %d rows", len(cfg.Weights), n)
		}
		for i, w := range cfg.Weights {
			if w < 0 || w != w {
				return nil, fmt.Errorf("boost: invalid weight %v at row %d", w, i)
			}
		}
		obj = Weighted{Inner: obj, Weights: cfg.Weights}
	}
	base := obj.BaseScore(ds.Labels)
	model := &Model{
		Objective:    cfg.Objective,
		BaseScore:    base,
		LearningRate: cfg.LearningRate,
		NumFeatures:  ds.NumFeatures(),
	}
	margins := make([]float64, n)
	for i := range margins {
		margins[i] = base
	}
	var testMargins []float64
	if testX != nil {
		if len(testY) != testX.N {
			return nil, fmt.Errorf("boost: %d test labels for %d rows", len(testY), testX.N)
		}
		testMargins = make([]float64, testX.N)
		for i := range testMargins {
			testMargins[i] = base
		}
	}
	grad := gh.NewBuffer(n)
	res := &Result{Model: model}
	pool := b.Pool()
	virtual := pool.Virtual()
	subsampling := cfg.Subsample > 0 && cfg.Subsample < 1
	var rng *synth.RNG
	if subsampling {
		rng = synth.NewRNG(cfg.Seed ^ 0x42535453)
	}
	// A cluster-sized builder pins its node count into every checkpoint:
	// resume rejects a mismatch.
	distNodes := 0
	if cs, ok := b.(engine.ClusterSized); ok {
		distNodes = cs.ClusterNodes()
	}
	st := &trainState{margins: margins, bestMetric: math.Inf(-1), res: res}
	if ck, err := maybeResume(cfg); err != nil {
		return nil, err
	} else if ck != nil {
		if model, err = st.restore(ck, cfg, n, ds.NumFeatures(), distNodes); err != nil {
			return nil, err
		}
		margins = st.margins
		if rng != nil {
			rng.SetState(ck.RNGState)
		}
		if testMargins != nil {
			// Replay test margins from the checkpointed trees in training
			// order (tree outer, row inner): per element this is the exact
			// float addition sequence the interrupted run performed.
			for i := range testMargins {
				testMargins[i] = model.BaseScore
			}
			for _, t := range model.Trees {
				for i := 0; i < testX.N; i++ {
					testMargins[i] += t.PredictRowRaw(testX.Row(i))
				}
			}
		}
	}
	lg := obs.L().With(obs.KeyRun, cfg.RunID, obs.KeyComponent, "boost")
	lg.Info("train start",
		"rounds", cfg.Rounds, "objective", cfg.Objective, "resumed_round", st.round)
	if st.res.StoppedEarly || st.round >= cfg.Rounds {
		// The checkpointed run had already finished; resume is idempotent.
		return st.res, nil
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("boost: checkpoint dir: %w", err)
		}
	}
	if cfg.Ctx != nil {
		// Bridge context cancellation to the pool so an in-flight parallel
		// region drains instead of running to completion.
		watchDone := make(chan struct{})
		watcherExited := make(chan struct{})
		// Join the watcher before returning: a watcher that already saw the
		// cancelled context must finish its Stop before the caller regains
		// control, or its Stop could land after the caller's ResetStop.
		defer func() { close(watchDone); <-watcherExited }()
		go func() {
			defer close(watcherExited)
			select {
			case <-cfg.Ctx.Done():
				pool.Stop()
			case <-watchDone:
			}
		}()
	}
	for round := st.round; round < cfg.Rounds; round++ {
		if err := cancelCause(cfg, pool); err != nil {
			// Stop synchronously too (the watcher goroutine may not have
			// observed the context yet): cancellation pins the pool stopped
			// until the owner re-arms it with ResetStop.
			pool.Stop()
			return nil, fmt.Errorf("boost: round %d: %w", round, err)
		}
		if err := fault.Point(pointRound); err != nil {
			return nil, fmt.Errorf("boost: round %d: %w", round, err)
		}
		for _, cb := range cfg.Callbacks {
			cb.BeforeRound(round, cfg.Rounds)
		}
		tm := profile.StartTimer()
		s0 := pool.Stats()
		obj.Gradients(margins, ds.Labels, grad)
		if subsampling {
			// Stochastic gradient boosting: excluded rows contribute no
			// gradient mass to this tree (they still flow through splits,
			// carrying zero weight).
			for i := range grad {
				if rng.Float64() >= cfg.Subsample {
					grad[i] = gh.Pair{}
				}
			}
		}
		bt, err := buildTreeSafe(b, grad)
		if err != nil {
			// The failing round's event tail is the post-mortem: dump the
			// armed flight recorder before unwinding (first dump wins, so a
			// recovery layer closer to the fault is never overwritten).
			lg.Error("round failed", obs.KeyRound, round+1, obs.KeyError, err.Error())
			if _, dumpErr := obs.DumpFlight("training round failed"); dumpErr != nil {
				// The training error outranks the dump failure, but the
				// missing post-mortem's cause must reach the log.
				lg.Error("flight dump failed", obs.KeyRound, round+1, obs.KeyError, dumpErr.Error())
			}
			return nil, fmt.Errorf("boost: round %d: %w", round, err)
		}
		if err := cancelCause(cfg, pool); err != nil {
			// The tree was grown from a drained (partial) parallel region;
			// discard it rather than checkpointing garbage.
			pool.Stop()
			return nil, fmt.Errorf("boost: round %d: %w", round, err)
		}
		scaleTree(bt.Tree, cfg.LearningRate)
		for i, leaf := range bt.LeafOf {
			if leaf >= 0 {
				margins[i] += bt.Tree.Nodes[leaf].Weight
			}
		}
		dur := tm.Elapsed()
		if virtual {
			// On the simulated parallel machine, replace the serial
			// in-region execution time with the simulated parallel wall
			// time; code outside parallel regions stays at its real cost.
			s1 := pool.Stats()
			serial := s1.SerialNanos - s0.SerialNanos
			vwall := s1.WallNanos - s0.WallNanos
			adj := dur.Nanoseconds() - serial + vwall
			if adj < vwall {
				adj = vwall
			}
			dur = time.Duration(adj)
		}
		res.TrainTime += dur
		res.PerTree = append(res.PerTree, dur)
		res.TotalLeaves += bt.Tree.NumLeaves()
		if d := bt.Tree.MaxDepth(); d > res.MaxDepth {
			res.MaxDepth = d
		}
		model.Trees = append(model.Trees, bt.Tree)
		if testMargins != nil {
			for i := 0; i < testX.N; i++ {
				testMargins[i] += bt.Tree.PredictRowRaw(testX.Row(i))
			}
		}
		stats := RoundStats{
			Round: round + 1, Rounds: cfg.Rounds,
			TreeTime: dur, TotalTime: res.TrainTime,
			Leaves: bt.Tree.NumLeaves(), CumLeaves: res.TotalLeaves, MaxDepth: res.MaxDepth,
			TrainLoss: math.NaN(), TestLoss: math.NaN(),
		}
		if cfg.EvalEvery > 0 && ((round+1)%cfg.EvalEvery == 0 || round == cfg.Rounds-1) {
			pt := EvalPoint{Round: round + 1, Elapsed: res.TrainTime}
			pt.TrainAUC = marginAUC(margins, ds.Labels)
			monitored := pt.TrainAUC
			if testMargins != nil {
				pt.TestAUC = marginAUC(testMargins, testY)
				monitored = pt.TestAUC
			}
			res.History = append(res.History, pt)
			stats.Eval = &pt
			stats.TrainLoss = objective.MeanLoss(obj, margins, ds.Labels)
			if testMargins != nil {
				stats.TestLoss = objective.MeanLoss(obj, testMargins, testY)
			}
			if cfg.EarlyStopRounds > 0 {
				if monitored > st.bestMetric {
					st.bestMetric = monitored
					st.sinceBest = 0
				} else {
					st.sinceBest++
					if st.sinceBest >= cfg.EarlyStopRounds {
						res.StoppedEarly = true
					}
				}
			}
		}
		for _, cb := range cfg.Callbacks {
			cb.AfterRound(stats)
		}
		lg.Debug("round complete", obs.KeyRound, round+1,
			"leaves", bt.Tree.NumLeaves(), "tree_nanos", dur.Nanoseconds())
		st.round = round + 1
		if cfg.CheckpointDir != "" &&
			((round+1)%cfg.CheckpointEvery == 0 || round == cfg.Rounds-1 || res.StoppedEarly) {
			var rngState *[4]uint64
			if rng != nil {
				s := rng.State()
				rngState = &s
			}
			if err := SaveCheckpoint(CheckpointPath(cfg.CheckpointDir), st.snapshot(model, rngState, distNodes)); err != nil {
				return nil, fmt.Errorf("boost: checkpoint after round %d: %w", round+1, err)
			}
			lg.Debug("checkpoint saved", obs.KeyRound, round+1)
		}
		if res.StoppedEarly {
			lg.Info("early stop", obs.KeyRound, round+1)
			break
		}
	}
	lg.Info("train done",
		obs.KeyRound, st.round, "trees", len(model.Trees), "leaves", res.TotalLeaves)
	return res, nil
}

// scaleTree applies the learning rate to every leaf weight in place.
func scaleTree(t *tree.Tree, lr float64) {
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			t.Nodes[i].Weight *= lr
		} else {
			t.Nodes[i].Weight = 0
		}
	}
}

// marginAUC computes AUC directly on margins (AUC is invariant under the
// monotone sigmoid, so no transform is needed).
func marginAUC(margins []float64, labels []float32) float64 {
	return metrics.AUC(margins, labels)
}
