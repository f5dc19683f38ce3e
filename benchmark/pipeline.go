package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/serve"
	"harpgbdt/internal/synth"
)

const (
	maxBins = 256
	// setupReps: set-up is done this many times per run and the median
	// reported, so one slow page-fault burst does not decide setup_s.
	setupReps = 3
	// sampleSlices is how many alternating predict/serve slices the
	// sampling phase is cut into; minSlicePasses is the floor on scoring
	// passes per slice whatever -seconds allows.
	sampleSlices   = 8
	minSlicePasses = 2
	// bestQuartile picks the reported slice: the lower quartile of the
	// per-slice values of a lower-is-better metric.
	bestQuartile = 0.25
	// tailQuantile is the tail latency reported end to end. On this
	// sandbox 0.6-2 % of requests stall for one scheduler tick (~4.5 ms)
	// and under 0.1 % for two: the p99 sits on the first knee and the
	// p99.9 on the second, and both jump by 25 % and more from run to
	// run. The p99.75 lies on the plateau between them on every workload
	// (50 or more samples beyond it) and moves by about 2 %.
	tailQuantile = 0.9975
	// warmShare is the part of -seconds the closed loop warms up for
	// (connections, first-touch caches) before anything is timed.
	warmShare = 0.05
	// numBodies is the size of the pre-encoded request set.
	numBodies = 64
	// sampleRows is how many rows the compiled-vs-naive check compares.
	sampleRows = 1000
)

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// verdict is one correctness check of a run.
type verdict struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// opCount is the attempted/failed account of one kind of operation.
type opCount struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Metrics  []metric  `json:"metrics"`
	Verdicts []verdict `json:"verdicts"`
	Ops      []opCount `json:"ops"`
	Trace    string    `json:"trace_file,omitempty"`
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Verdicts = append(r.Verdicts, verdict{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) op(name string, attempted, failed int64) {
	r.Ops = append(r.Ops, opCount{name, attempted, failed})
}

func (r *result) correct() bool {
	for _, v := range r.Verdicts {
		if !v.OK {
			return false
		}
	}
	return true
}

func (r *result) totals() (attempted, failed int64) {
	for _, o := range r.Ops {
		attempted += o.Attempted
		failed += o.Failed
	}
	return attempted, failed
}

// bench is the state of one run: the journey's artifacts pass from
// phase to phase here.
type bench struct {
	wl      workload
	seed    uint64
	seconds float64
	w       int
	tr      *tracer // nil in the untraced run
	outDir  string
	res     *result

	trainX, testX *dataset.Dense
	trainY, testY []float32
	ds            *dataset.Dataset
	builder       *core.Builder
	trained       *boost.Result
	flat          *serve.Flat
	svc           *serve.Service
	reg           *obs.Registry
	srv           *server

	trainSetup []float64 // seconds per repetition
	serveSetup []float64
	compileMS  []float64
	newBldMS   []float64
	kernelNS   []float64 // ns/row per batch-scoring pass

	payloads    *payloads
	load        loadResult
	probeLedger ledger // requests the serving probes sent through the service

	// Traced run only.
	rt                     *roundTracer
	spin                   sched.SpinStats       // contention of the main training run
	reqBefore, reqAfter    obs.HistogramSnapshot // the service's clocks around the closed loop
	kernBefore, kernAfter  obs.HistogramSnapshot
	svcRejected, svcErrors int64
}

// runWorkload runs the whole journey of one workload once.
func runWorkload(wl workload, seed uint64, seconds float64, w int, traced bool, outDir string) (*result, error) {
	b := &bench{
		wl: wl, seed: seed, seconds: seconds, w: w, outDir: outDir,
		res: &result{Workload: wl.Name, Seed: seed, Seconds: seconds, Traced: traced},
	}
	if traced {
		b.tr = newTracer()
	}
	defer b.stopServing()
	for _, phase := range []func() error{
		b.generate, b.setupTraining, b.train, b.probeTraining, b.checkDeterminism,
		b.setupServing, b.sample, b.probeServing, b.finish,
	} {
		if err := phase(); err != nil {
			return nil, err
		}
	}
	return b.res, nil
}

// coreConfig is the engine configuration of this workload at width w.
func (b *bench) coreConfig(mode core.Mode, workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.TreeSize = b.wl.TreeSize
	cfg.Workers = workers
	return cfg
}

// generate makes the run's inputs: the workload's fixed population,
// split and ordered by the seed. Load generation; never timed.
func (b *bench) generate() error {
	wl := b.wl
	pop, labels, err := synth.Generate(synth.Config{Spec: wl.Spec, Features: wl.Features, Rows: wl.TrainRows + wl.TestRows, Seed: populationSeed})
	if err != nil {
		return fmt.Errorf("generate %s: %w", wl.Name, err)
	}
	perm := synth.NewRNG(b.seed).Perm(pop.N)
	gather := func(idx []int) (*dataset.Dense, []float32) {
		d := dataset.NewDense(len(idx), pop.M)
		y := make([]float32, len(idx))
		for i, src := range idx {
			copy(d.Row(i), pop.Row(src))
			y[i] = labels[src]
		}
		return d, y
	}
	b.trainX, b.trainY = gather(perm[:wl.TrainRows])
	b.testX, b.testY = gather(perm[wl.TrainRows:])
	return nil
}

// setupTraining times dataset.FromDense + core.NewBuilder, setupReps
// times over; training then runs on the last, never-used builder.
func (b *bench) setupTraining() error {
	root := b.tr.begin("setup.training", -1, 0)
	defer b.tr.end(root)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		sp := b.tr.begin("dataset.FromDense", root, 0)
		ds, err := dataset.FromDense(b.wl.Name, b.trainX, b.trainY, maxBins)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("bin %s: %w", b.wl.Name, err)
		}
		t1 := time.Now()
		sp = b.tr.begin("core.NewBuilder", root, 0)
		bld, err := core.NewBuilder(b.coreConfig(b.wl.Mode, b.w), ds)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("new builder %s: %w", b.wl.Name, err)
		}
		t2 := time.Now()
		b.trainSetup = append(b.trainSetup, t2.Sub(t0).Seconds())
		b.newBldMS = append(b.newBldMS, float64(t2.Sub(t1).Nanoseconds())/1e6)
		b.ds, b.builder = ds, bld
	}
	return nil
}

// roundTracer turns boosting rounds into spans: one trace id per round,
// BuildTree as the round's child. It re-implements no boosting logic —
// it is a boost.Callback plus a pass-through engine.Builder.
type roundTracer struct {
	engine.Builder
	tr    *tracer
	round int32
	trace int64
	// lastGrad is the gradient buffer of the latest round; the kernel
	// probes run on it after training.
	lastGrad gh.Buffer
	mem      []runtime.MemStats // sampled before round 0 and after every round
	// hook is the time spent in this type's own code: what tracing the
	// rounds cost.
	hook time.Duration
}

func (rt *roundTracer) BeforeRound(round, _ int) {
	t0 := time.Now()
	if len(rt.mem) == 0 {
		rt.sampleMem()
	}
	rt.trace = int64(round) + 1
	rt.round = rt.tr.begin("boost.round", -1, rt.trace)
	rt.hook += time.Since(t0)
}

func (rt *roundTracer) AfterRound(s boost.RoundStats) {
	t0 := time.Now()
	rt.tr.end(rt.round)
	// The loop offers no hook between the margin update and evaluation;
	// the round's own clock (TreeTime) marks where evaluation began.
	rt.tr.child("boost.eval", rt.round, s.TreeTime)
	rt.sampleMem()
	rt.hook += time.Since(t0)
}

func (rt *roundTracer) sampleMem() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rt.mem = append(rt.mem, ms)
}

func (rt *roundTracer) BuildTree(grad gh.Buffer) (*engine.BuiltTree, error) {
	t0 := time.Now()
	rt.lastGrad = grad
	sp := rt.tr.begin("core.BuildTree", rt.round, rt.trace)
	t1 := time.Now()
	bt, err := rt.Builder.BuildTree(grad)
	t2 := time.Now()
	rt.tr.end(sp)
	rt.tr.count("core.trees", 1)
	rt.hook += time.Since(t0) - t2.Sub(t1)
	return bt, err
}

// trainOnce runs boost.Train for rounds on bld. With a tracer the
// builder and callback hooks are installed; without, nothing is.
func (b *bench) trainOnce(bld engine.Builder, rounds, evalEvery int, rt *roundTracer) (*boost.Result, error) {
	cfg := boost.Config{Rounds: rounds, EvalEvery: evalEvery}
	if rt != nil {
		rt.Builder = bld
		bld = rt
		cfg.Callbacks = []boost.Callback{rt}
	}
	res, err := boost.Train(bld, b.ds, cfg, b.testX, b.testY)
	if err != nil {
		return nil, fmt.Errorf("train %s (%s): %w", b.wl.Name, bld.Name(), err)
	}
	return res, nil
}

// train is the timed training run: cold, Rounds trees. The untraced run
// evaluates test AUC after the last round only (evaluation is outside
// train_s but sorts every training margin, 6 s over 60 rounds of
// train-thin); the traced run evaluates every round for time-to-AUC.
func (b *bench) train() error {
	var rt *roundTracer
	if b.tr != nil {
		rt = &roundTracer{tr: b.tr}
		b.rt = rt
		sched.ResetSpinStats()
	}
	evalEvery := b.wl.Rounds
	if rt != nil {
		evalEvery = 1
	}
	res, err := b.trainOnce(b.builder, b.wl.Rounds, evalEvery, rt)
	built := int64(0)
	if res != nil {
		built = int64(len(res.PerTree))
	}
	b.res.op("trees", int64(b.wl.Rounds), int64(b.wl.Rounds)-built)
	if err != nil {
		return err
	}
	b.trained = res
	b.spin = sched.ReadSpinStats()
	auc := res.History[len(res.History)-1].TestAUC
	if b.tr == nil {
		per := millis(res.PerTree)
		b.res.add("train_s", res.TrainTime.Seconds(), "s", 1)
		b.res.add("train_tree_ms_p50", median(per), "ms", len(per))
		b.res.add("test_auc", auc, "auc", b.testX.N)
	}
	b.res.check("test_auc_floor", auc >= b.wl.AUCFloor, "test AUC %.4f, floor %.2f", auc, b.wl.AUCFloor)
	return nil
}

// server is a real net/http server on a loopback port.
type server struct {
	http *http.Server
	url  string
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/predict", h)
	s := &server{
		http: &http.Server{Handler: mux},
		url:  "http://" + ln.Addr().String() + "/predict",
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

func (b *bench) stopServing() {
	if b.srv != nil {
		if err := b.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: server stop:", err)
		}
		b.srv = nil
	}
	if b.svc != nil {
		b.svc.Close()
		b.svc = nil
	}
}

// setupServing times serve.Compile + serve.NewService + listener up,
// setupReps times over; the last one stays up for the load phases. The
// training state is released first: a scoring service does not hold its
// training set.
func (b *bench) setupServing() error {
	b.ds, b.builder, b.trainX, b.trainY, b.rt = nil, nil, nil, nil, nil
	runtime.GC()
	root := b.tr.begin("setup.serving", -1, 0)
	defer b.tr.end(root)
	for i := 0; i < setupReps; i++ {
		b.stopServing()
		t0 := time.Now()
		sp := b.tr.begin("serve.Compile", root, 0)
		flat, err := serve.Compile(b.trained.Model)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("compile %s: %w", b.wl.Name, err)
		}
		t1 := time.Now()
		sp = b.tr.begin("serve.NewService", root, 0)
		reg := obs.NewRegistry()
		svc, err := serve.NewService(flat, serve.Config{Registry: reg, Workers: b.w})
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("new service %s: %w", b.wl.Name, err)
		}
		b.svc = svc
		var h http.Handler = svc
		if b.tr != nil {
			h = tracedHandler(svc, b.tr)
		}
		srv, err := startServer(h)
		if err != nil {
			return err
		}
		b.srv, b.flat, b.reg = srv, flat, reg
		b.serveSetup = append(b.serveSetup, time.Since(t0).Seconds())
		b.compileMS = append(b.compileMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	if b.tr == nil {
		b.res.add("setup_s", median(b.trainSetup)+median(b.serveSetup), "s", setupReps)
	}
	return nil
}

// sample is the sampling phase: -seconds shared between whole scoring
// passes over the held-out rows (one goroutine) and the closed loop
// against the live /predict, cut into sampleSlices alternating slices.
// Each slice yields its own median pass time and request rate; the run
// reports the best-quartile slice of each, because interference from the
// machine's other tenants — on this sandbox ±10 % for seconds at a time —
// only ever slows a slice down. The tail latency is a quantile of the
// whole window, all slices pooled: a tail needs every stall counted.
// Then the compiled scores are checked against the naive walk.
func (b *bench) sample() error {
	x := b.testX
	p, err := makePayloads(b.flat, x, numBodies, b.wl.ReqRows, synth.NewRNG(b.seed^0x726571))
	if err != nil {
		return err
	}
	b.payloads = p
	out := make([]float64, x.N)
	scratch := b.flat.NewScratch()
	share := func(f float64) time.Duration {
		return time.Duration(f * b.seconds * float64(time.Second) / sampleSlices)
	}
	runtime.GC()
	loop := newClosedLoop(b.srv.url, p, b.w, b.seed, b.tr)
	loop.run(time.Duration(warmShare*b.seconds*float64(time.Second)), false)
	b.reqBefore, b.kernBefore = b.svc.RequestLatency(), b.svc.KernelLatency()
	var perRow, passNS, rate []float64
	for s := 0; s < sampleSlices; s++ {
		var passes []float64
		for start := time.Now(); len(passes) < minSlicePasses || time.Since(start) < share(b.wl.PredictShare); {
			sp := b.tr.begin("serve.PredictRangeInto", -1, int64(len(perRow)+len(passes))+1)
			d := timeIt(func() { b.flat.PredictRangeInto(x, 0, x.N, out, scratch) })
			b.tr.end(sp)
			passes = append(passes, float64(d.Nanoseconds())/float64(x.N))
		}
		perRow = append(perRow, passes...)
		passNS = append(passNS, median(passes))
		sl := loop.run(share(b.wl.ServeShare), true)
		if sl.OK == 0 {
			continue
		}
		rate = append(rate, float64(sl.OK)/sl.Elapsed.Seconds())
	}
	b.reqAfter, b.kernAfter = b.svc.RequestLatency(), b.svc.KernelLatency()
	lr := loop.close()
	b.kernelNS, b.load = perRow, lr
	if len(rate) == 0 {
		return fmt.Errorf("serve %s: no request succeeded in the timed window (first error: %v)", b.wl.Name, lr.firstErr)
	}
	if b.tr == nil {
		b.res.add("predict_ns_per_row", quantile(passNS, bestQuartile), "ns", len(perRow))
		b.res.add("serve_req_per_s", quantile(rate, 1-bestQuartile), "1/s", len(lr.LatUS))
		b.res.add("serve_p9975_us", quantileSorted(lr.LatUS, tailQuantile), "us", len(lr.LatUS))
	}
	// Bit-identity of the compiled kernel against Model.Predict.
	rng := synth.NewRNG(b.seed ^ 0x636865636b)
	bad := int64(0)
	n := min(sampleRows, x.N)
	for i := 0; i < n; i++ {
		r := rng.Intn(x.N)
		if math.Float64bits(out[r]) != math.Float64bits(b.trained.Model.Predict(x.Row(r))) {
			bad++
		}
	}
	b.res.op("rows_scored", int64(len(perRow))*int64(x.N), bad)
	b.res.check("compiled_equals_naive", bad == 0, "%d of %d sampled rows differ from Model.Predict", bad, n)
	return nil
}

// finish closes the service, settles the request ledger against the
// service's counters, and reads the process's peak memory.
func (b *bench) finish() error {
	l := b.load.ledger
	l.add(b.probeLedger)
	// The service's own counters, by the names it registered them under.
	admitted := b.reg.Counter("serve_requests_total", "").Value()
	rejected := b.reg.Counter("serve_rejected_total", "").Value()
	failed := b.reg.Counter("serve_errors_total", "").Value()
	b.svcRejected, b.svcErrors = rejected, failed
	b.stopServing()
	b.res.op("requests", l.Sent, l.Rejected+l.Errors)
	conserved := l.Sent == l.OK+l.Rejected+l.Errors
	agrees := admitted == l.OK+failed && rejected == l.Rejected
	b.res.check("request_ledger", conserved && agrees,
		"client sent %d = ok %d + rejected %d + errors %d; service admitted %d, rejected %d, failed %d",
		l.Sent, l.OK, l.Rejected, l.Errors, admitted, rejected, failed)
	b.res.check("responses_equal_compiled", l.Mismatch == 0, "%d of %d response bodies differ from the compiled model's scores", l.Mismatch, l.OK)
	if b.tr != nil {
		b.traceMetrics()
		path, err := b.tr.write(b.outDir, b.wl.Name)
		if err != nil {
			return err
		}
		b.res.Trace = path
		return nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.res.add("peak_rss_mb", rss, "MB", 1)
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM line in /proc/self/status")
}
