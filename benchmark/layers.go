package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"harpgbdt/internal/baseline"
	"harpgbdt/internal/core"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/engine"
	"harpgbdt/internal/gh"
	"harpgbdt/internal/grow"
	"harpgbdt/internal/histogram"
	"harpgbdt/internal/objective"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/sched"
	"harpgbdt/internal/serve"
	"harpgbdt/internal/synth"
	"harpgbdt/internal/tree"
)

const (
	// probeRounds caps the length of the side runs of the traced run
	// (the mode quartet, the one-worker run, the baselines).
	probeRounds = 5
	// probeReps is how often a kernel probe repeats; the median counts.
	probeReps = 5
	// probeShare is the part of -seconds each request-path probe samples
	// for; minProbeSamples is its floor.
	probeShare      = 0.04
	minProbeSamples = 10
	// openLoopCap is the open-loop diagnostic's rate ceiling, 1/s.
	openLoopCap = 1000
	// pinRounds caps the length of the two determinism repeats.
	pinRounds = 5
)

// probe runs fn reps times and returns the median time in nanoseconds.
func probe(reps int, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		ns[i] = float64(timeIt(fn).Nanoseconds())
	}
	return median(ns)
}

// timeRepeated repeats fn for the probe's share of -seconds (at least
// minProbeSamples times) and returns each call's time in microseconds.
func (b *bench) timeRepeated(fn func()) []float64 {
	budget := time.Duration(probeShare * b.seconds * float64(time.Second))
	var us []float64
	for start := time.Now(); len(us) < minProbeSamples || time.Since(start) < budget; {
		us = append(us, float64(timeIt(fn).Nanoseconds())/1e3)
	}
	return us
}

// sideRun trains a few trees (probeRounds, or the workload's rounds if
// fewer) with a fresh builder and returns the per-tree times (ms) and
// the total training time.
func (b *bench) sideRun(bld engine.Builder) ([]float64, time.Duration, error) {
	res, err := b.trainOnce(bld, min(probeRounds, b.wl.Rounds), 0, nil)
	if err != nil {
		return nil, 0, err
	}
	return millis(res.PerTree), res.TrainTime, nil
}

// probeTraining is the training half of the traced run's per-layer
// numbers: kernel probes on the final round's gradients, then the side
// runs. A no-op in the untraced run.
func (b *bench) probeTraining() error {
	if b.tr == nil {
		return nil
	}
	ds, n, m := b.ds, b.ds.NumRows(), b.ds.NumFeatures()
	cells := float64(n) * float64(m)
	grad := b.rt.lastGrad

	// dataset
	var cuts *dataset.Cuts
	b.res.add("dataset.cuts_ms", probe(2, func() { cuts = dataset.BuildCuts(b.trainX, maxBins) })/1e6, "ms", 2)
	b.res.add("dataset.bin_ns_per_cell", probe(3, func() { dataset.BinDense(b.trainX, cuts) })/cells, "ns", 3)

	// objective
	obj, err := objective.New(b.trained.Model.Objective)
	if err != nil {
		return fmt.Errorf("objective probe: %w", err)
	}
	margins := make([]float64, n)
	scratchGrad := gh.NewBuffer(n)
	b.res.add("objective.grad_ns_per_row", probe(probeReps, func() { obj.Gradients(margins, ds.Labels, scratchGrad) })/float64(n), "ns", probeReps)

	// gh
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	var mb gh.MemBuf
	b.res.add("gh.membuf_ns_per_row", probe(probeReps, func() { mb = gh.BuildMemBuf(rows, grad) })/float64(n), "ns", probeReps)

	// histogram: the kernels at the root node, all rows x all features,
	// one goroutine.
	layout := histogram.NewLayout(ds.Cuts)
	h := histogram.NewHist(layout)
	bins := float64(layout.TotalBins())
	blocks := dataset.NewColumnBlocks(ds.Binned, b.builder.Config().FeatureBlockSize)
	b.res.add("histogram.accum_panel_ns_per_cell", probe(3, func() {
		h.Reset()
		for k := 0; k < blocks.NumBlocks(); k++ {
			lo, hi, panel := blocks.Block(k)
			h.AccumulatePanelRows(panel, hi-lo, mb, lo, hi)
		}
	})/cells, "ns", 3)
	// Two half ranges cover every bin once; the rows are read twice, the
	// extra-read cost the paper attributes to bin blocking.
	b.res.add("histogram.accum_binrange_ns_per_cell", probe(3, func() {
		h.Reset()
		for _, r := range [][2]uint8{{0, 128}, {128, dataset.MissingBin}} {
			for k := 0; k < blocks.NumBlocks(); k++ {
				lo, hi, panel := blocks.Block(k)
				h.AccumulatePanelRowsBinRange(panel, hi-lo, mb, lo, hi, r[0], r[1])
			}
		}
	})/cells, "ns", 3)
	b.res.add("histogram.accum_membuf_ns_per_cell", probe(3, func() {
		h.Reset()
		h.AccumulateMemBuf(ds.Binned, mb, 0, m)
	})/cells, "ns", 3)
	params := tree.DefaultSplitParams()
	total := mb.Sum()
	var split tree.SplitInfo
	b.res.add("histogram.findsplit_ns_per_bin", probe(probeReps, func() { split = h.FindBestSplit(params, total, 0, m) })/bins, "ns", probeReps)
	other := h.Clone()
	b.res.add("histogram.sub_ns_per_bin", probe(probeReps, func() { other.SubHist(h) })/bins, "ns", probeReps)
	b.res.add("histogram.cells", cells, "count", 1)
	b.res.add("histogram.bins", bins, "count", 1)
	b.res.add("histogram.pool_allocated", float64(b.builder.HistogramsAllocated()), "count", 1)

	// engine: partition the root on its best split, on a real pool.
	if !split.Valid() {
		return fmt.Errorf("engine probe: the root of %s has no valid split", b.wl.Name)
	}
	root := engine.RootRowSet(n, grad, true)
	pool := sched.NewPool(b.w)
	goLeft := engine.GoLeftFunc(ds.Binned, split)
	b.res.add("engine.partition_ns_per_row", probe(probeReps, func() { engine.Partition(root, goLeft, pool) })/float64(n), "ns", probeReps)

	// core and sched, as the main run left them.
	res := b.trained
	rounds := float64(len(res.PerTree))
	prof := b.builder.Profile()
	b.res.add("core.newbuilder_ms", median(b.newBldMS), "ms", len(b.newBldMS))
	b.res.add("core.buildhist_share", prof.Fraction(profile.BuildHist), "share", 1)
	b.res.add("core.findsplit_share", prof.Fraction(profile.FindSplit), "share", 1)
	b.res.add("core.applysplit_share", prof.Fraction(profile.ApplySplit), "share", 1)
	b.res.add("core.leaves_per_tree", float64(res.TotalLeaves)/rounds, "count", len(res.PerTree))
	b.res.add("core.max_depth", float64(res.MaxDepth), "count", 1)
	mem := b.rt.mem
	first, last := mem[0], mem[len(mem)-1]
	b.res.add("core.alloc_mb_per_tree", float64(last.TotalAlloc-first.TotalAlloc)/1e6/rounds, "MB", len(res.PerTree))
	b.res.add("core.gc_cycles_per_tree", float64(last.NumGC-first.NumGC)/rounds, "count", len(res.PerTree))
	st := b.builder.Pool().Stats()
	b.res.add("sched.utilization", st.Utilization(b.w), "share", 1)
	b.res.add("sched.barrier_overhead", st.BarrierOverhead(), "share", 1)
	b.res.add("sched.regions_per_tree", float64(st.Regions)/rounds, "count", len(res.PerTree))
	b.res.add("sched.tasks_per_tree", float64(st.Tasks)/rounds, "count", len(res.PerTree))
	b.res.add("sched.spin_contended_per_tree", float64(b.spin.ContendedAcquires)/rounds, "count", len(res.PerTree))

	// boost
	b.res.add("boost.tree_ms_p90", quantile(millis(res.PerTree), 0.9), "ms", len(res.PerTree))
	reached, toRounds, toTime := 0.0, float64(len(res.History)), res.TrainTime.Seconds()
	for _, pt := range res.History {
		if pt.TestAUC >= b.wl.AUCTarget {
			reached, toRounds, toTime = 1, float64(pt.Round), pt.Elapsed.Seconds()
			break
		}
	}
	b.res.add("boost.auc_target_reached", reached, "count", 1)
	b.res.add("boost.rounds_to_auc", toRounds, "count", 1)
	b.res.add("boost.time_to_auc_s", toTime, "s", 1)

	// The side runs: every mode on the same data at width W, the
	// workload's own mode on one worker, and the two baselines.
	var ownTime time.Duration
	for _, mode := range []core.Mode{core.DP, core.MP, core.Sync, core.Async} {
		bld, err := core.NewBuilder(b.coreConfig(mode, b.w), ds)
		if err != nil {
			return fmt.Errorf("side run %s: %w", mode, err)
		}
		ms, tt, err := b.sideRun(bld)
		if err != nil {
			return err
		}
		b.res.add("core."+strings.ToLower(mode.String())+"_tree_ms_p50", median(ms), "ms", len(ms))
		if mode == b.wl.Mode {
			ownTime = tt
		}
	}
	serial, err := core.NewBuilder(b.coreConfig(b.wl.Mode, 1), ds)
	if err != nil {
		return fmt.Errorf("one-worker run: %w", err)
	}
	_, t1, err := b.sideRun(serial)
	if err != nil {
		return err
	}
	b.res.add("sched.parallel_efficiency", t1.Seconds()/(float64(b.w)*ownTime.Seconds()), "share", min(probeRounds, b.wl.Rounds))
	bcfg := baseline.Config{Growth: grow.Leafwise, TreeSize: b.wl.TreeSize, Params: params, Workers: b.w}
	xgb, err := baseline.NewXGBHist(bcfg, ds)
	if err != nil {
		return fmt.Errorf("xgbhist baseline: %w", err)
	}
	lgb, err := baseline.NewLightGBM(bcfg, ds)
	if err != nil {
		return fmt.Errorf("lightgbm baseline: %w", err)
	}
	for _, bl := range []struct {
		name string
		bld  engine.Builder
	}{{"baseline.xgbhist_tree_ms_p50", xgb}, {"baseline.lightgbm_tree_ms_p50", lgb}} {
		ms, _, err := b.sideRun(bl.bld)
		if err != nil {
			return err
		}
		b.res.add(bl.name, median(ms), "ms", len(ms))
	}

	// What tracing a round costs: the time inside the hooks themselves
	// (clocked in place) against the time of the rounds they wrap.
	b.res.add("trace.train_overhead_pct", 100*b.rt.hook.Seconds()/res.TrainTime.Seconds(), "%", len(res.PerTree))
	return nil
}

// checkDeterminism pins the deterministic engine: two in-process SYNC
// runs of pinRounds on the same inputs must produce the same model
// bytes. ASYNC makes no such promise, so only SYNC workloads are pinned.
func (b *bench) checkDeterminism() error {
	if b.wl.Mode != core.Sync {
		return nil
	}
	rounds := min(pinRounds, b.wl.Rounds)
	var sums [2][sha256.Size]byte
	for i := range sums {
		bld, err := core.NewBuilder(b.coreConfig(core.Sync, b.w), b.ds)
		if err != nil {
			return fmt.Errorf("determinism pin: %w", err)
		}
		res, err := b.trainOnce(bld, rounds, 0, nil)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := res.Model.WriteJSON(&buf); err != nil {
			return fmt.Errorf("determinism pin: encode model: %w", err)
		}
		sums[i] = sha256.Sum256(buf.Bytes())
	}
	b.res.check("sync_deterministic", sums[0] == sums[1], "two %d-round SYNC runs hash %x and %x", rounds, sums[0][:6], sums[1][:6])
	return nil
}

// handlerProbe sends body through Service.ServeHTTP with no socket, on
// one goroutine, and returns the times (µs) of the requests that got a
// 200.
func (b *bench) handlerProbe(body []byte, expect func([]byte) bool) []float64 {
	var us []float64
	l := &b.probeLedger
	all := b.timeRepeated(func() {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		d := timeIt(func() { b.svc.ServeHTTP(rec, req) })
		l.Sent++
		switch rec.Code {
		case http.StatusOK:
			l.OK++
			if !expect(rec.Body.Bytes()) {
				l.Mismatch++
			}
			us = append(us, float64(d.Nanoseconds())/1e3)
		case http.StatusTooManyRequests:
			l.Rejected++
		default:
			l.Errors++
		}
	})
	b.tr.count("serve.handler_probe_requests", int64(len(all)))
	return us
}

// probeServing is the serving half of the traced run's per-layer
// numbers. A no-op in the untraced run.
func (b *bench) probeServing() error {
	if b.tr == nil {
		return nil
	}
	x, p := b.testX, b.payloads
	flat := b.flat

	// boost: the naive walk the compiled kernel replaces.
	var naiveErr error
	naive := timeIt(func() { _, naiveErr = b.trained.Model.PredictDense(x) })
	if naiveErr != nil {
		return fmt.Errorf("naive predict: %w", naiveErr)
	}
	b.res.add("boost.naive_predict_ns_per_row", float64(naive.Nanoseconds())/float64(x.N), "ns", 1)

	// serve, kernel side.
	b.res.add("serve.compile_ms", median(b.compileMS), "ms", len(b.compileMS))
	b.res.add("serve.compiled_mb", float64(flat.Bytes())/1e6, "MB", 1)
	kernel := median(b.kernelNS)
	b.res.add("serve.kernel_ns_per_row", kernel, "ns", len(b.kernelNS))
	b.res.add("serve.kernel_ns_per_row_tree", kernel/float64(flat.NumTrees()), "ns", len(b.kernelNS))
	out := make([]float64, x.N)
	scratch := make([]*serve.Scratch, b.w)
	for i := range scratch {
		scratch[i] = flat.NewScratch()
	}
	b.res.add("serve.kernel_par_ns_per_row", probe(3, func() {
		var wg sync.WaitGroup
		for g := 0; g < b.w; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				flat.PredictRangeInto(x, g*x.N/b.w, (g+1)*x.N/b.w, out, scratch[g])
			}(g)
		}
		wg.Wait()
	})/float64(x.N), "ns", 3)
	batch := &dataset.Dense{N: p.rows, M: x.M, Values: x.Values[:p.rows*x.M]}
	us := b.timeRepeated(func() { flat.PredictRangeInto(batch, 0, batch.N, out, scratch[0]) })
	kernelUS := median(us)
	b.res.add("serve.kernel_us_per_req", kernelUS, "us", len(us))

	// serve, service side: the handler with no socket, and a
	// benchmark-side replica of its JSON work on the same bytes.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sentBefore := b.probeLedger.Sent
	us = b.handlerProbe(p.bodies[0], func(body []byte) bool { return p.matches(0, body) })
	runtime.ReadMemStats(&after)
	sent := b.probeLedger.Sent - sentBefore
	if len(us) == 0 {
		return fmt.Errorf("handler probe: no request of %d succeeded", sent)
	}
	b.res.add("serve.handler_us_p50", median(us), "us", len(us))
	b.res.add("serve.handler_us_p99", quantile(us, 0.99), "us", len(us))
	b.res.add("serve.alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/1e3/float64(sent), "kB", int(sent))
	b.res.add("serve.kernel_share_of_handler", kernelUS/median(us), "share", len(us))
	type reqBody struct {
		Rows [][]float32 `json:"rows"`
	}
	type respBody struct {
		Req         uint64    `json:"req"`
		Predictions []float64 `json:"predictions,omitempty"`
	}
	var decodeErr, encodeErr error
	us = b.timeRepeated(func() {
		var rb reqBody
		if err := json.NewDecoder(bytes.NewReader(p.bodies[0])).Decode(&rb); err != nil {
			decodeErr = err
		}
	})
	b.res.add("serve.decode_us_p50", median(us), "us", len(us))
	us = b.timeRepeated(func() {
		if err := json.NewEncoder(io.Discard).Encode(respBody{Req: 1, Predictions: p.expect[0]}); err != nil {
			encodeErr = err
		}
	})
	b.res.add("serve.encode_us_p50", median(us), "us", len(us))
	if decodeErr != nil || encodeErr != nil {
		return fmt.Errorf("json replica: decode %v, encode %v", decodeErr, encodeErr)
	}

	// The same layer used differently: one request large enough to cross
	// MinParallelRows, so the kernel dominates the handler.
	big, err := makePayloads(flat, x, 1, 256, synth.NewRNG(b.seed^0x626967))
	if err != nil {
		return err
	}
	us = b.handlerProbe(big.bodies[0], func(body []byte) bool { return big.matches(0, body) })
	if len(us) == 0 {
		return errors.New("handler probe: no 256-row request succeeded")
	}
	b.res.add("serve.batch256_handler_us_p50", median(us), "us", len(us))

	// The service's own clocks over the closed loop. Its request clock
	// starts after the JSON decode.
	reqLat, kernLat := serve.DiffSnapshot(b.reqBefore, b.reqAfter), serve.DiffSnapshot(b.kernBefore, b.kernAfter)
	enq := 1e6 * reqLat.Sum / float64(max(reqLat.Count, 1))
	kern := 1e6 * kernLat.Sum / float64(max(kernLat.Count, 1))
	b.res.add("serve.enq_to_done_us_mean", enq, "us", int(reqLat.Count))
	b.res.add("serve.kernel_us_mean", kern, "us", int(kernLat.Count))
	b.res.add("serve.queue_wait_us_mean", enq-kern, "us", int(reqLat.Count))
	// The exact quantiles are reported here, not end to end. About 1 % of
	// the requests on this sandbox stall for a scheduler tick (~4 ms), so
	// the p99 sits on that knee and jumps between 1.5 and 4 ms from run to
	// run; the median moves by up to 23 % over ten runs where the mean
	// (serve_req_per_s, in a closed loop) moves by half that.
	b.res.add("serve.client_p50_us", quantileSorted(b.load.LatUS, 0.5), "us", len(b.load.LatUS))
	b.res.add("serve.client_p99_us", quantileSorted(b.load.LatUS, 0.99), "us", len(b.load.LatUS))
	overhead := b.tr.selfTimes("client.request")
	b.res.add("serve.http_overhead_us_p50", 1e3*median(overhead), "us", len(overhead))
	plain := median(b.load.PlainUS)
	b.res.add("trace.serve_overhead_pct", 100*(median(b.load.TracedUS)-plain)/plain, "%", len(b.load.TracedUS))

	// Open loop, diagnostic: Poisson arrivals at half the closed loop's
	// rate (capped), timed from when each request was due.
	rate := 0.5 * float64(len(b.load.LatUS)) / b.load.Elapsed.Seconds()
	if rate > openLoopCap {
		rate = openLoopCap
	}
	open := openLoop(b.srv.url, p, 4*b.w, rate, time.Duration(0.3*b.seconds*float64(time.Second)), b.seed)
	b.probeLedger.add(open.ledger)
	b.res.add("serve.open_rate_per_s", rate, "1/s", int(open.Sent))
	b.res.add("serve.open_p50_us", quantileSorted(open.LatUS, 0.5), "us", len(open.LatUS))
	b.res.add("serve.open_p99_us", quantileSorted(open.LatUS, 0.99), "us", len(open.LatUS))
	b.res.add("serve.open_gen_late_p99_us", quantileSorted(open.GenLate, 0.99), "us", len(open.GenLate))
	return nil
}

// traceMetrics reports the per-layer numbers the spans give, and the
// service's failure counters.
func (b *bench) traceMetrics() {
	build := b.tr.durations("core.BuildTree")
	b.res.add("core.buildtree_ms_p50", median(build), "ms", len(build))
	b.res.add("core.buildtree_ms_p90", quantile(build, 0.9), "ms", len(build))
	self := b.tr.selfTimes("boost.round")
	b.res.add("boost.round_self_ms_p50", median(self), "ms", len(self))
	b.res.add("serve.rejected", float64(b.svcRejected), "count", 1)
	b.res.add("serve.errors", float64(b.svcErrors), "count", 1)
	b.res.add("trace.spans", float64(len(b.tr.spans)), "count", 1)
}
