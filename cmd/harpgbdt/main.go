// Command harpgbdt trains, evaluates and applies GBDT models from the
// command line.
//
// Subcommands:
//
//	train      train a model on libsvm/CSV/synthetic data and save it as JSON
//	predict    load a model and write predictions for a dataset
//	eval       load a model and report AUC / logloss / error on labeled data
//	cv         k-fold cross-validation
//	importance print per-feature importance of a trained model
//	dump       print a human-readable model dump
//	stats      print dataset shape statistics (Table III format)
//	serve      compile a model and serve POST /predict over HTTP
//
// Examples:
//
//	harpgbdt train -data train.libsvm -model model.json -trees 100 -d 8
//	harpgbdt train -synth higgs -rows 100000 -engine lightgbm -trees 50
//	harpgbdt predict -data test.libsvm -model model.json -out preds.txt
//	harpgbdt eval -data test.libsvm -model model.json
//	harpgbdt cv -synth higgs -rows 50000 -folds 5 -trees 50
//	harpgbdt importance -model model.json -type gain -top 20
//	harpgbdt stats -data train.csv -format csv
//	harpgbdt serve -model model.json -addr :9090
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"harpgbdt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "importance":
		err = cmdImportance(os.Args[2:])
	case "cv":
		err = cmdCV(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: harpgbdt <train|predict|eval|stats|cv|importance|dump|serve> [flags]")
	fmt.Fprintln(os.Stderr, "run 'harpgbdt <subcommand> -h' for flags")
}

// dataFlags holds the common dataset-loading flags.
type dataFlags struct {
	data      string
	format    string
	features  int
	maxBins   int
	synthSpec string
	rows      int
	seed      uint64
}

func addDataFlags(fs *flag.FlagSet) *dataFlags {
	df := &dataFlags{}
	fs.StringVar(&df.data, "data", "", "input file (libsvm or CSV)")
	fs.StringVar(&df.format, "format", "libsvm", "input format: libsvm, csv or cache")
	fs.IntVar(&df.features, "features", 0, "feature count for libsvm (0 = infer)")
	fs.IntVar(&df.maxBins, "bins", 256, "max histogram bins per feature")
	fs.StringVar(&df.synthSpec, "synth", "", "generate synthetic data instead: synset, higgs, airline, criteo, yfcc")
	fs.IntVar(&df.rows, "rows", 50000, "rows for synthetic data")
	fs.Uint64Var(&df.seed, "seed", 42, "seed for synthetic data")
	return df
}

func (df *dataFlags) load() (*harpgbdt.Dataset, error) {
	switch {
	case df.synthSpec != "":
		return harpgbdt.Synthesize(harpgbdt.SynthConfig{
			Spec: harpgbdt.SynthSpec(df.synthSpec), Rows: df.rows, Seed: df.seed,
		}, df.maxBins)
	case df.data == "":
		return nil, fmt.Errorf("either -data or -synth is required")
	case df.format == "csv":
		return harpgbdt.LoadCSV(df.data, df.maxBins)
	case df.format == "libsvm":
		return harpgbdt.LoadLibSVM(df.data, df.features, df.maxBins)
	case df.format == "cache":
		return harpgbdt.LoadCache(df.data)
	default:
		return nil, fmt.Errorf("unknown format %q", df.format)
	}
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	df := addDataFlags(fs)
	var (
		modelPath = fs.String("model", "model.json", "output model path")
		engineN   = fs.String("engine", "harp", "engine: harp, xgb-depth, xgb-leaf, lightgbm")
		trees     = fs.Int("trees", 100, "number of boosting rounds")
		lr        = fs.Float64("lr", 0.1, "learning rate")
		objective = fs.String("objective", "binary:logistic", "objective: binary:logistic or reg:squarederror")
		d         = fs.Int("d", 8, "tree size D (2^(D-1) leaves)")
		k         = fs.Int("k", 32, "TopK batch size (harp engine)")
		mode      = fs.String("mode", "async", "harp parallel mode: dp, mp, sync, async")
		fb        = fs.Int("feature-blk", 4, "feature block size (harp engine)")
		nb        = fs.Int("node-blk", 32, "node block size (harp engine)")
		workers   = fs.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
		distNodes = fs.Int("dist-nodes", 0, "train on the simulated distributed cluster with this many nodes (0 = single-node engine; pinned into checkpoints)")
		virtual   = fs.Bool("virtual", false, "run on the simulated 32-worker parallel machine")
		evalEvery = fs.Int("eval-every", 10, "print train AUC every N trees (0 = never)")
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file")
		obsAddr   = fs.String("obs-addr", "", "serve /metrics, /progress and /debug/pprof on this address while training (e.g. :9090)")
		profTable = fs.Bool("profile", false, "print the phase breakdown / scheduler profile table after training")
		subsample = fs.Float64("subsample", 0, "row subsampling ratio per tree (0 or 1 = off)")
		ckptDir   = fs.String("checkpoint-dir", "", "persist a resumable checkpoint into this directory every -checkpoint-every rounds")
		ckptEvery = fs.Int("checkpoint-every", 1, "rounds between checkpoints (with -checkpoint-dir)")
		resume    = fs.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir if one exists")
		inject    = fs.String("inject", "", "arm fault-injection points for robustness testing, e.g. 'boost.round=panic,after=5'")
		flightOut = fs.String("flight-out", "", "arm the crash flight recorder: on panic, injected fault or training error, dump the last structured-log events to this checksummed JSON file")
		logOut    = fs.String("log", "", "write structured JSON logs to this file ('-' = stderr)")
		logLevel  = fs.String("log-level", "info", "minimum structured-log output level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flightOut != "" {
		harpgbdt.ArmFlightRecorder(*flightOut, 0)
		defer harpgbdt.ArmFlightRecorder("", 0)
	}
	if *logOut != "" {
		w := os.Stderr
		if *logOut != "-" {
			f, err := os.Create(*logOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		lg, err := harpgbdt.NewLogger(w, *logLevel)
		if err != nil {
			return err
		}
		harpgbdt.SetDefaultLogger(lg)
		defer harpgbdt.SetDefaultLogger(nil)
	}
	ds, err := df.load()
	if err != nil {
		return err
	}
	// Armed after loading: binning runs on sched workers too, and an
	// injected sched.worker fault targets training.
	if *inject != "" {
		if err := harpgbdt.EnableFaults(*inject); err != nil {
			return err
		}
		defer harpgbdt.ResetFaults()
	}
	fmt.Printf("dataset: %s\n", harpgbdt.Stats(ds))
	obsv := harpgbdt.NewObserver()
	if *traceOut != "" {
		obsv.EnableTracing(0)
	}
	harpgbdt.SetDefaultObserver(obsv)
	defer harpgbdt.SetDefaultObserver(nil)
	if *obsAddr != "" {
		srv, err := harpgbdt.ServeObs(*obsAddr, obsv)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s (metrics, progress, debug/pprof)\n", srv.Addr())
	}
	opts := harpgbdt.Options{
		Engine: *engineN,
		Harp: harpgbdt.HarpConfig{
			Mode: parseMode(*mode), K: *k, Growth: harpgbdt.Leafwise, TreeSize: *d,
			FeatureBlockSize: *fb, NodeBlockSize: *nb, UseMemBuf: true,
			Workers: *workers, Virtual: *virtual,
		},
		Baseline: harpgbdt.BaselineConfig{TreeSize: *d, Workers: *workers, Virtual: *virtual},
		Boost: harpgbdt.BoostConfig{
			Rounds: *trees, LearningRate: *lr, Objective: *objective, EvalEvery: *evalEvery,
			Subsample: *subsample, Seed: df.seed,
			CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
			Callbacks: []harpgbdt.Callback{harpgbdt.NewObsCallback(obsv)},
		},
	}
	if *resume && *ckptDir != "" {
		if ck, err := harpgbdt.LoadCheckpoint(harpgbdt.CheckpointPath(*ckptDir)); err == nil {
			fmt.Printf("resuming from checkpoint at round %d\n", ck.Round)
		}
	}
	var builder harpgbdt.Builder
	if *distNodes > 0 {
		// The simulated cluster: an allreduce step that exhausts its retries
		// aborts training, and the last checkpoint is the resume point.
		builder, err = harpgbdt.NewDistTrainer(harpgbdt.DistConfig{
			Nodes: *distNodes, WorkersPerNode: *workers, TreeSize: *d, K: *k,
		}, ds)
	} else {
		builder, err = harpgbdt.NewBuilder(opts, ds)
	}
	if err != nil {
		return err
	}
	harpgbdt.RegisterRunMetrics(obsv, builder)
	start := time.Now()
	res, err := harpgbdt.TrainWith(builder, ds, opts.Boost, nil, nil)
	if err != nil {
		// First-dump-wins: a dump written closer to the fault (worker panic,
		// injected fault) is kept; this is the outermost net.
		if path, derr := harpgbdt.DumpFlight("training error"); derr == nil && path != "" {
			fmt.Fprintf(os.Stderr, "flight recorder dumped to %s\n", path)
		}
		return err
	}
	for _, pt := range res.History {
		fmt.Printf("tree %4d  trainAUC %.5f  elapsed %v\n", pt.Round, pt.TrainAUC, pt.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("trained %d trees in %v (%v/tree measured, %v wall), %d leaves, max depth %d\n",
		res.Model.NumTrees(), res.TrainTime.Round(time.Millisecond),
		res.AvgTreeTime().Round(time.Microsecond),
		time.Since(start).Round(time.Millisecond), res.TotalLeaves, res.MaxDepth)
	if *profTable {
		fmt.Print(res.Report(builder).PhaseTable().String())
	}
	if err := res.Model.SaveFile(*modelPath); err != nil {
		return err
	}
	fmt.Printf("model saved to %s\n", *modelPath)
	if *traceOut != "" {
		// The model is already on disk; a bad trace path must not fail the run.
		if err := obsv.Tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "warning: trace not written: %v\n", err)
		} else {
			fmt.Printf("trace written to %s (%d events; open in chrome://tracing or ui.perfetto.dev)\n",
				*traceOut, obsv.Tracer.Len())
		}
	}
	return nil
}

func parseMode(s string) harpgbdt.Mode {
	switch strings.ToLower(s) {
	case "dp":
		return harpgbdt.DP
	case "mp":
		return harpgbdt.MP
	case "sync":
		return harpgbdt.Sync
	default:
		return harpgbdt.Async
	}
}

// loadRaw loads the raw (unbinned) matrix and labels for predict/eval.
func loadRaw(df *dataFlags) (*harpgbdt.Dense, []float32, error) {
	if df.data == "" {
		return nil, nil, fmt.Errorf("-data is required")
	}
	f, err := os.Open(df.data)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if df.format == "csv" {
		return harpgbdt.ReadCSVRaw(f)
	}
	return harpgbdt.ReadLibSVMRaw(f, df.features)
}

// score predicts every row of x through the compiled serving kernel:
// Model.PredictDense's scores to the bit, several times faster.
func score(m *harpgbdt.Model, x *harpgbdt.Dense) ([]float64, error) {
	flat, err := harpgbdt.CompileModel(m)
	if err != nil {
		return nil, err
	}
	if err := flat.CheckDense(x); err != nil {
		return nil, err
	}
	preds := make([]float64, x.N)
	flat.PredictRangeInto(x, 0, x.N, preds, flat.NewScratch())
	return preds, nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	df := addDataFlags(fs)
	modelPath := fs.String("model", "model.json", "model path")
	outPath := fs.String("out", "-", "output path (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := harpgbdt.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	x, _, err := loadRaw(df)
	if err != nil {
		return err
	}
	preds, err := score(m, x)
	if err != nil {
		return err
	}
	out := os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	for _, p := range preds {
		fmt.Fprintf(w, "%.6f\n", p)
	}
	return w.Flush()
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	df := addDataFlags(fs)
	modelPath := fs.String("model", "model.json", "model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := harpgbdt.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	x, y, err := loadRaw(df)
	if err != nil {
		return err
	}
	preds, err := score(m, x)
	if err != nil {
		return err
	}
	fmt.Printf("rows %d  AUC %.5f  logloss %.5f  error %.5f\n",
		x.N, harpgbdt.AUC(preds, y), harpgbdt.LogLoss(preds, y), harpgbdt.ErrorRate(preds, y))
	return nil
}

func cmdCV(args []string) error {
	fs := flag.NewFlagSet("cv", flag.ExitOnError)
	df := addDataFlags(fs)
	var (
		folds   = fs.Int("folds", 5, "number of folds")
		trees   = fs.Int("trees", 50, "trees per fold")
		lr      = fs.Float64("lr", 0.1, "learning rate")
		d       = fs.Int("d", 8, "tree size D")
		engineN = fs.String("engine", "harp", "engine")
		seed    = fs.Uint64("cv-seed", 1, "fold shuffle seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := df.load()
	if err != nil {
		return err
	}
	opts := harpgbdt.Options{
		Engine:   *engineN,
		Harp:     harpgbdt.HarpConfig{Mode: harpgbdt.Sync, K: 32, Growth: harpgbdt.Leafwise, TreeSize: *d, UseMemBuf: true, FeatureBlockSize: 4, NodeBlockSize: 32},
		Baseline: harpgbdt.BaselineConfig{TreeSize: *d},
		Boost:    harpgbdt.BoostConfig{Rounds: *trees, LearningRate: *lr},
	}
	res, err := harpgbdt.CrossValidate(ds, opts, *folds, *seed)
	if err != nil {
		return err
	}
	for i, auc := range res.FoldAUC {
		fmt.Printf("fold %d: AUC %.5f\n", i+1, auc)
	}
	fmt.Printf("cv AUC %.5f +/- %.5f (%d trees total)\n", res.MeanAUC, res.StdAUC, res.Trees)
	return nil
}

func cmdImportance(args []string) error {
	fs := flag.NewFlagSet("importance", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model path")
	kind := fs.String("type", "gain", "importance type: gain, cover or frequency")
	top := fs.Int("top", 20, "show the top-k features (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := harpgbdt.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	idx, vals, err := m.TopFeatures(harpgbdt.ImportanceType(*kind), *top)
	if err != nil {
		return err
	}
	for i, f := range idx {
		fmt.Printf("f%-6d %12.4f\n", f, vals[i])
	}
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := harpgbdt.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	return m.DumpText(os.Stdout)
}

// cmdServe compiles a saved model and serves it: POST /predict plus the
// full observability surface (/metrics, /healthz, /readyz, /progress,
// /debug/pprof) on one address, until SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "model.json", "model path")
		addr      = fs.String("addr", ":9090", "listen address")
		queue     = fs.Int("queue", 0, "admission queue depth (0 = default 256; a full queue rejects with 429)")
		batch     = fs.Int("batch", 0, "max rows coalesced per kernel dispatch (0 = default 512)")
		lanes     = fs.Int("lanes", 0, "concurrent batch dispatchers (0 = default 1)")
		workers   = fs.Int("workers", 0, "worker threads per lane (0 = GOMAXPROCS)")
		logLevel  = fs.String("log-level", "info", "minimum structured-log output level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg, err := harpgbdt.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		return err
	}
	harpgbdt.SetDefaultLogger(lg)
	defer harpgbdt.SetDefaultLogger(nil)
	// Catch the signals before armServe announces the address: a client
	// that reads it may signal at once.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	srv, svc, err := armServe(*modelPath, *addr, harpgbdt.ServeConfig{
		QueueDepth: *queue, MaxBatchRows: *batch, Lanes: *lanes, Workers: *workers,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	defer srv.Close()
	<-sig
	fmt.Println("shutting down")
	return nil
}

// armServe is the serving composition: load and compile the model, start
// the prediction service, and put it on an observability server at addr
// with /predict mounted and /readyz following the service. It announces
// the bound address; the caller closes the server, then the service.
func armServe(modelPath, addr string, cfg harpgbdt.ServeConfig) (*harpgbdt.ObsServer, *harpgbdt.PredictService, error) {
	m, err := harpgbdt.LoadModel(modelPath)
	if err != nil {
		return nil, nil, err
	}
	flat, err := harpgbdt.CompileModel(m)
	if err != nil {
		return nil, nil, err
	}
	svc, err := harpgbdt.NewPredictService(flat, cfg)
	if err != nil {
		return nil, nil, err
	}
	srv, err := harpgbdt.ServeObs(addr, harpgbdt.NewObserver())
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	srv.Mount("/predict", svc)
	srv.SetReady(svc.Ready)
	fmt.Printf("serving %s (%d trees, %d nodes, %d KiB compiled) on http://%s/predict\n",
		modelPath, flat.NumTrees(), flat.NumNodes(), flat.Bytes()/1024, srv.Addr())
	return srv, svc, nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	df := addDataFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := df.load()
	if err != nil {
		return err
	}
	fmt.Println(harpgbdt.Stats(ds))
	return nil
}
