// Package harpgbdt is a pure-Go reproduction of HarpGBDT (Peng et al.,
// IEEE CLUSTER 2019): a gradient boosting decision tree trainer designed
// for multicore parallel efficiency via TopK tree growth, block-wise
// parallelism over ⟨row, node, bin, feature⟩ blocks, mixed DP/MP/SYNC/ASYNC
// parallel modes, and memory-access optimizations (1-byte bins, MemBuf
// gradient replicas, histogram subtraction).
//
// The package also ships the paper's baselines (XGBoost hist and LightGBM
// parallel designs) as configurations of the same block-parallel builder,
// the synthetic dataset generators matching the paper's Table III shapes,
// and the experiment harness regenerating every table and figure of the
// evaluation (see cmd/experiments and EXPERIMENTS.md).
//
// # Quick start
//
//	ds, _ := harpgbdt.Synthesize(harpgbdt.SynthConfig{
//		Spec: harpgbdt.SynSet, Rows: 100000, Seed: 1,
//	}, 256)
//	res, _ := harpgbdt.Train(ds, harpgbdt.Options{}, nil, nil)
//	p := res.Model.Predict(features)
package harpgbdt

import (
	"fmt"
	"io"
	"log/slog"

	"harpgbdt/internal/baseline"
	"harpgbdt/internal/boost"
	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/dist"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/fault"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/metrics"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/serve"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

// Re-exported data types.
type (
	// Dataset is a binned training dataset (labels + 1-byte bins + cuts).
	Dataset = dataset.Dataset
	// Dense is a row-major float32 matrix with NaN as missing.
	Dense = dataset.Dense
	// CSR is a compressed sparse row matrix.
	CSR = dataset.CSR
	// DatasetStats are the Table III shape statistics (N, M, S, CV).
	DatasetStats = dataset.Stats
	// Model is a trained ensemble.
	Model = boost.Model
	// Tree is a single regression tree.
	Tree = tree.Tree
	// Builder grows one tree per boosting round.
	Builder = engine.Builder
	// BuiltTree is a grown tree plus its training-row leaf assignment.
	BuiltTree = engine.BuiltTree
	// HarpConfig is the HarpGBDT engine configuration (Table IV).
	HarpConfig = core.Config
	// BaselineConfig configures the XGBoost/LightGBM presets.
	BaselineConfig = baseline.Config
	// BoostConfig controls the boosting loop.
	BoostConfig = boost.Config
	// Result is a training run's model plus measurements.
	Result = boost.Result
	// RunReport is a training run's profiling record (utilization and
	// barrier-overhead analogs, phase breakdown).
	RunReport = profile.Report
	// RunTable is a printable experiment result table.
	RunTable = profile.Table
	// EvalPoint is one convergence-curve sample.
	EvalPoint = boost.EvalPoint
	// SplitParams are the regularization hyper-parameters (λ, γ,
	// min_child_weight).
	SplitParams = tree.SplitParams
	// SynthConfig configures the synthetic dataset generators.
	SynthConfig = synth.Config
	// SynthSpec names a synthetic dataset family.
	SynthSpec = synth.Spec
	// ImportanceType selects the feature-importance aggregation.
	ImportanceType = boost.ImportanceType
	// DistConfig configures the simulated distributed trainer.
	DistConfig = dist.Config
	// DistTrainer is the simulated distributed trainer (future-work
	// extension; implements Builder).
	DistTrainer = dist.Trainer
	// Pool is a parallel worker pool (real or simulated).
	Pool = sched.Pool
	// CostModel parameterizes the simulated parallel machine.
	CostModel = sched.CostModel
	// Mode selects HarpGBDT's parallel design.
	Mode = core.Mode
	// GrowthMethod orders the candidate queue.
	GrowthMethod = grow.Method
	// Observer bundles a run's observability state: optional trace-event
	// tracer, metrics registry and live progress snapshot.
	Observer = obs.Observer
	// ObsServer is the observability HTTP server (/metrics, /progress,
	// /trace, /debug/pprof).
	ObsServer = obs.Server
	// Logger is the nil-safe structured logger with the stable key schema
	// (run, node, round, depth, phase, ...).
	Logger = obs.Logger
	// FlightRecorder is the bounded lock-free ring of recent structured-log
	// events, dumped to a checksummed artifact on crash.
	FlightRecorder = obs.FlightRecorder
	// FlightDump is the crash post-mortem artifact a flight recorder writes.
	FlightDump = obs.FlightDump
	// Callback observes the boosting loop round by round.
	Callback = boost.Callback
	// RoundStats is the per-round payload delivered to callbacks.
	RoundStats = boost.RoundStats
	// Checkpoint is a persisted snapshot of the boosting loop (model plus
	// resume state); see BoostConfig.CheckpointDir.
	Checkpoint = boost.Checkpoint
	// FaultRegistry is a deterministic fault-injection registry for
	// robustness testing (see internal/fault).
	FaultRegistry = fault.Registry
)

// ErrTrainingStopped is returned by Train when the run was cancelled via
// BoostConfig.Ctx or Pool.Stop before completing.
var ErrTrainingStopped = boost.ErrStopped

// Parallel modes (Table II).
const (
	DP    = core.DP
	MP    = core.MP
	Sync  = core.Sync
	Async = core.Async
)

// Growth methods.
const (
	Depthwise = grow.Depthwise
	Leafwise  = grow.Leafwise
)

// Feature-importance aggregation kinds.
const (
	ImportanceGain      = boost.ImportanceGain
	ImportanceCover     = boost.ImportanceCover
	ImportanceFrequency = boost.ImportanceFrequency
)

// Synthetic dataset families (Table III shapes).
const (
	SynSet      = synth.SynSet
	HiggsLike   = synth.HiggsLike
	AirlineLike = synth.AirlineLike
	CriteoLike  = synth.CriteoLike
	YFCCLike    = synth.YFCCLike
)

// Options selects and configures a training engine.
type Options struct {
	// Engine picks the trainer: "harp" (default), "xgb-depth", "xgb-leaf"
	// or "lightgbm".
	Engine string
	// Harp configures the HarpGBDT engine (zero value = paper defaults).
	Harp HarpConfig
	// Baseline configures the baseline presets.
	Baseline BaselineConfig
	// Boost controls the boosting loop (zero value = 100 rounds, lr 0.1,
	// logistic loss).
	Boost BoostConfig
}

// NewBuilder constructs the configured tree builder for a dataset.
func NewBuilder(opts Options, ds *Dataset) (Builder, error) {
	switch opts.Engine {
	case "", "harp":
		cfg := opts.Harp
		if cfg == (HarpConfig{}) {
			cfg = core.DefaultConfig()
		}
		if cfg.Params == (SplitParams{}) {
			cfg.Params = tree.DefaultSplitParams()
		}
		return core.NewBuilder(cfg, ds)
	case "xgb-depth", "xgb-leaf", "lightgbm":
		cfg := opts.Baseline
		if cfg.Params == (SplitParams{}) {
			cfg.Params = tree.DefaultSplitParams()
		}
		if opts.Engine == "lightgbm" {
			return baseline.NewLightGBM(cfg, ds)
		}
		cfg.Growth = grow.Leafwise
		if opts.Engine == "xgb-depth" {
			cfg.Growth = grow.Depthwise
		}
		return baseline.NewXGBHist(cfg, ds)
	default:
		return nil, fmt.Errorf("harpgbdt: unknown engine %q", opts.Engine)
	}
}

// Train builds the engine and runs the boosting loop. testX/testY are
// optional (enable convergence evaluation on held-out data).
func Train(ds *Dataset, opts Options, testX *Dense, testY []float32) (*Result, error) {
	b, err := NewBuilder(opts, ds)
	if err != nil {
		return nil, err
	}
	return boost.Train(b, ds, opts.Boost, testX, testY)
}

// TrainWith runs the boosting loop with a pre-built engine, letting the
// caller inspect the builder's scheduler statistics and phase breakdown
// afterwards (see Result.Report).
func TrainWith(b Builder, ds *Dataset, cfg BoostConfig, testX *Dense, testY []float32) (*Result, error) {
	return boost.Train(b, ds, cfg, testX, testY)
}

// NewObserver returns an observer backed by the process-wide default
// metrics registry (tracing disabled until Observer.EnableTracing).
func NewObserver() *Observer { return obs.New() }

// SetDefaultObserver routes the engines' package-level trace spans to o's
// tracer (nil disables tracing). Metrics need no installation: engine
// counters live in the default registry every observer from NewObserver
// shares.
func SetDefaultObserver(o *Observer) { obs.SetDefault(o) }

// ServeObs starts the observability HTTP server on addr (e.g. ":9090" or
// ":0" for an ephemeral port; see ObsServer).
func ServeObs(addr string, o *Observer) (*ObsServer, error) { return obs.Serve(addr, o) }

// NewLogger returns a structured JSON logger writing events at or above
// level ("debug", "info", "warn" or "error") to w. Install it with
// SetDefaultLogger; events always feed the armed flight recorder
// regardless of the output level.
func NewLogger(w io.Writer, level string) (*Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("harpgbdt: log level %q: %w", level, err)
	}
	return obs.NewLogger(w, lv), nil
}

// SetDefaultLogger installs the process-wide structured logger (nil
// restores the output-less default, which still feeds the flight
// recorder).
func SetDefaultLogger(l *Logger) { obs.SetDefaultLogger(l) }

// ArmFlightRecorder installs a process-wide crash flight recorder
// retaining the last `size` structured-log events (<= 0 selects the
// default capacity) and dumping them to path — a checksummed artifact —
// on the first crash (worker panic, injected fault, training error).
// An empty path disarms.
func ArmFlightRecorder(path string, size int) *FlightRecorder {
	return obs.ArmFlightRecorder(path, size)
}

// DumpFlight dumps the armed flight recorder now (no-op when disarmed).
// Only the first dump of a recorder wins, so calling this on an error
// path never overwrites a dump written closer to the fault.
func DumpFlight(reason string) (string, error) { return obs.DumpFlight(reason) }

// ReadFlightDump loads a flight-recorder dump, verifying its integrity
// footer.
func ReadFlightDump(path string) (*FlightDump, error) { return obs.ReadFlightDump(path) }

// NewObsCallback returns a boosting callback publishing per-round spans,
// per-iteration loss/AUC metrics and live progress through o. Attach it via
// BoostConfig.Callbacks.
func NewObsCallback(o *Observer) Callback { return boost.NewObsCallback(o) }

// RegisterRunMetrics folds b's phase breakdown and scheduler statistics
// into o's registry so a /metrics scrape covers the paper's phase fractions
// and utilization/barrier analogs. Values are read at scrape time.
func RegisterRunMetrics(o *Observer, b Builder) {
	profile.RegisterObs(o.Registry, b.Profile(), b.Pool())
}

// Synthesize generates a deterministic synthetic dataset (see SynthConfig).
func Synthesize(cfg SynthConfig, maxBins int) (*Dataset, error) {
	return synth.Make(cfg, maxBins)
}

// SynthesizeTrainTest generates train and held-out test splits.
func SynthesizeTrainTest(cfg SynthConfig, testRows, maxBins int) (*Dataset, *Dense, []float32, error) {
	return synth.MakeTrainTest(cfg, testRows, maxBins)
}

// LoadLibSVM reads a libsvm file into a Dataset.
func LoadLibSVM(path string, numFeatures, maxBins int) (*Dataset, error) {
	return dataset.LoadLibSVMFile(path, numFeatures, maxBins)
}

// LoadCSV reads a label-first CSV file into a Dataset.
func LoadCSV(path string, maxBins int) (*Dataset, error) {
	return dataset.LoadCSVFile(path, maxBins)
}

// NewDataset bins a dense matrix with labels.
func NewDataset(name string, d *Dense, labels []float32, maxBins int) (*Dataset, error) {
	return dataset.FromDense(name, d, labels, maxBins)
}

// NewDenseMatrix allocates an n x m raw feature matrix (NaN = missing).
func NewDenseMatrix(n, m int) *Dense { return dataset.NewDense(n, m) }

// NewPool returns a real worker pool of the given width (0 = GOMAXPROCS).
func NewPool(workers int) *Pool { return sched.NewPool(workers) }

// NewVirtualPool returns a simulated parallel machine of the given width
// (0 = 32, the paper's thread count). Zero cost model selects defaults.
func NewVirtualPool(workers int, cost CostModel) *Pool {
	return sched.NewVirtualPool(workers, cost)
}

// Stats computes the Table III shape statistics of a dataset.
func Stats(ds *Dataset) DatasetStats { return dataset.ComputeStats(ds) }

// AUC computes the area under the ROC curve.
func AUC(scores []float64, labels []float32) float64 { return metrics.AUC(scores, labels) }

// LogLoss computes mean binary cross-entropy of probability predictions.
func LogLoss(probs []float64, labels []float32) float64 { return metrics.LogLoss(probs, labels) }

// RMSE computes root mean squared error.
func RMSE(preds []float64, labels []float32) float64 { return metrics.RMSE(preds, labels) }

// ErrorRate computes the 0.5-threshold misclassification rate.
func ErrorRate(probs []float64, labels []float32) float64 { return metrics.ErrorRate(probs, labels) }

// LoadModel reads a model saved with Model.SaveFile.
func LoadModel(path string) (*Model, error) { return boost.LoadFile(path) }

// SaveCache writes a dataset to the fast binary cache format (atomic,
// checksummed; see LoadCache).
func SaveCache(path string, ds *Dataset) error { return dataset.SaveCacheFile(path, ds) }

// LoadCache reads a dataset from the binary cache format, verifying its
// integrity checksum.
func LoadCache(path string) (*Dataset, error) { return dataset.LoadCacheFile(path) }

// LoadCheckpoint reads and validates a training checkpoint written by the
// boosting loop (BoostConfig.CheckpointDir).
func LoadCheckpoint(path string) (*Checkpoint, error) { return boost.LoadCheckpoint(path) }

// CheckpointPath returns the checkpoint file path inside a checkpoint
// directory.
func CheckpointPath(dir string) string { return boost.CheckpointPath(dir) }

// EnableFaults arms the process-wide fault registry from a ';'-separated
// spec string, e.g. "boost.round=panic,after=5;dist.allreduce=error,times=2".
// Intended for robustness testing only.
func EnableFaults(specs string) error { return fault.EnableSpecs(specs) }

// ResetFaults disarms every fault enabled via EnableFaults.
func ResetFaults() { fault.Reset() }

// NewDistTrainer builds the simulated distributed trainer (histogram
// allreduce over a simulated cluster; see internal/dist).
func NewDistTrainer(cfg DistConfig, ds *Dataset) (*DistTrainer, error) {
	return dist.NewTrainer(cfg, ds)
}

// CVResult summarizes a k-fold cross-validation.
type CVResult = boost.CVResult

// Multiclass (softmax) training.
type (
	// MulticlassConfig controls softmax training (labels = class ids).
	MulticlassConfig = boost.MulticlassConfig
	// MulticlassModel is a trained softmax ensemble.
	MulticlassModel = boost.MulticlassModel
	// MulticlassResult bundles a softmax model with measurements.
	MulticlassResult = boost.MulticlassResult
)

// TrainMulticlass trains a softmax ensemble with the configured engine.
func TrainMulticlass(ds *Dataset, opts Options, cfg MulticlassConfig) (*MulticlassResult, error) {
	b, err := NewBuilder(opts, ds)
	if err != nil {
		return nil, err
	}
	return boost.TrainMulticlass(b, ds, cfg)
}

// CrossValidate runs k-fold cross-validation with the configured engine.
func CrossValidate(ds *Dataset, opts Options, folds int, seed uint64) (*CVResult, error) {
	factory := func(fold *Dataset) (Builder, error) { return NewBuilder(opts, fold) }
	return boost.CrossValidate(factory, ds, opts.Boost, folds, seed)
}

// SubsetDataset extracts the given rows into a new dataset sharing the
// original's bin cuts.
func SubsetDataset(ds *Dataset, rows []int32) (*Dataset, error) {
	return dataset.Subset(ds, rows)
}

// ReadCSVRaw parses label-first CSV into a raw matrix and labels (for
// prediction on unbinned data).
func ReadCSVRaw(r io.Reader) (*Dense, []float32, error) { return dataset.ReadCSV(r) }

// ReadLibSVMRaw parses libsvm text into a raw dense matrix and labels.
func ReadLibSVMRaw(r io.Reader, numFeatures int) (*Dense, []float32, error) {
	csr, labels, err := dataset.ReadLibSVM(r, numFeatures)
	if err != nil {
		return nil, nil, err
	}
	return csr.ToDense(), labels, nil
}

// Model serving: compiled flat ensembles behind a /predict endpoint.
type (
	// FlatModel is a trained ensemble compiled to contiguous arrays for
	// allocation-free inference, bit-identical to the pointer walk it
	// replaces (see internal/serve).
	FlatModel = serve.Flat
	// PredictService serves a compiled model over HTTP: bounded-queue
	// admission, batch coalescing, latency histograms, request tracing
	// and access logs. Mount it on the obs server under /predict.
	PredictService = serve.Service
	// ServeConfig sizes the serving pipeline (queue depth, batch cap,
	// lanes, workers).
	ServeConfig = serve.Config
)

// CompileModel flattens a trained model into the serving representation.
func CompileModel(m *Model) (*FlatModel, error) { return serve.Compile(m) }

// CompileMulticlassModel flattens a trained softmax ensemble into the
// serving representation.
func CompileMulticlassModel(m *MulticlassModel) (*FlatModel, error) {
	return serve.CompileMulticlass(m)
}

// NewPredictService arms a compiled model behind the serving pipeline
// and starts its dispatcher lanes; Close releases them.
func NewPredictService(f *FlatModel, cfg ServeConfig) (*PredictService, error) {
	return serve.NewService(f, cfg)
}
