package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/perf"
	"harpgbdt/internal/sched"
)

// ServingPID is the trace lane group of the serving path: request
// lifecycle events render as their own process ("serving") next to the
// training lanes (pid 1) and the simulated cluster nodes (pid 2+).
const ServingPID = 1000

// Metric names of the serving path. The obshygiene lint rule enforces
// the serve_ prefix on every metric registered from this package, so
// the names live here as one auditable block.
const (
	metricRequests      = "serve_requests_total"
	metricRejected      = "serve_rejected_total"
	metricErrors        = "serve_errors_total"
	metricRows          = "serve_rows_total"
	metricRequestSec    = "serve_request_seconds"
	metricQueueSec      = "serve_queue_seconds"
	metricKernelSec     = "serve_kernel_seconds"
	metricBatchRows     = "serve_batch_rows"
	metricQueueDepth    = "serve_queue_depth"
	metricInflight      = "serve_inflight_batches"
	metricCompiledBytes = "serve_compiled_bytes"
)

// A /predict body may not exceed what MaxBatchRows rows of the model's
// width take at bodyBytesPerCell — a float64 printed in full with its
// separator and brackets is under 32 bytes — plus bodyEnvelopeBytes;
// beyond that the handler answers 413 without decoding.
const (
	bodyBytesPerCell  = 32
	bodyEnvelopeBytes = 1 << 10
)

// traceCat is the span/flow category of every serving trace event
// (enforced by obshygiene, like the metric prefix).
const traceCat = "serve"

// Config sizes the serving pipeline. The zero value selects defaults
// suitable for tests and small deployments.
type Config struct {
	// Registry receives the serve_* metrics (nil = the process-wide
	// obs.DefaultRegistry; tests pass a fresh registry for isolation).
	Registry *obs.Registry
	// QueueDepth bounds the admission queue; a full queue rejects with
	// 429 instead of letting latency grow without bound (default 256).
	QueueDepth int
	// MaxBatchRows caps how many rows one dispatch coalesces (default 512).
	MaxBatchRows int
	// Lanes is the number of concurrent batch dispatchers, each with its
	// own worker pool and scratch (default 1).
	Lanes int
	// Workers is the parallel width of each lane's pool (default
	// GOMAXPROCS).
	Workers int
	// MinParallelRows is the batch size below which the kernel runs
	// inline instead of fanning out (default 256; see
	// sched.ParallelForAtLeast).
	MinParallelRows int
	// Perf attaches a per-worker wait-state ledger (internal/perf) to
	// each lane's pool, with kernel time in the Predict phase.
	Perf bool
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = obs.DefaultRegistry()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatchRows == 0 {
		c.MaxBatchRows = 512
	}
	if c.Lanes == 0 {
		c.Lanes = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinParallelRows == 0 {
		c.MinParallelRows = 256
	}
	return c
}

// request is one admitted /predict call moving through the pipeline.
type request struct {
	id uint64
	n  int // rows
	// cells holds the n rows' cells, row-major, in a cellPool buffer
	// that runBatch returns to the pool once it has copied them.
	cells *[]float32
	out   []float64
	done  chan error // buffered(1): the dispatcher never blocks on it
	enq   time.Time
}

// lane is one batch dispatcher: a worker pool plus per-worker scratch.
type lane struct {
	pool    *sched.Pool
	scratch []*Scratch
	acct    *perf.Accounting
	// batch, x and out hold one batch's requests, rows and scores. Only
	// the lane's goroutine touches them, and they grow to the largest
	// batch seen, so a warm batch allocates nothing that scales with it.
	batch []*request
	x     dataset.Dense
	out   []float64
}

// Service owns a compiled model and serves it over HTTP: bounded-queue
// admission, batch coalescing, parallel kernel dispatch, and the full
// telemetry surface (latency histograms, serving trace lane, access
// logs, live gauges). Mount it on the obs server under /predict.
type Service struct {
	flat    *Flat
	cfg     Config
	maxBody int64 // bytes of one /predict body
	runID   string
	log     *obs.Logger
	epoch   time.Time

	queue  chan *request
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	reqSeq   atomic.Uint64
	batchSeq atomic.Uint64

	reqLatency    *obs.Histogram
	queueLatency  *obs.Histogram
	kernelLatency *obs.Histogram
	batchRows     *obs.Histogram
	requests      *obs.Counter
	rejected      *obs.Counter
	errCount      *obs.Counter
	rowsTotal     *obs.Counter
	queueDepth    *obs.Gauge
	inflight      *obs.Gauge

	lanes []*lane
}

// NewService arms a compiled model behind the serving pipeline and
// starts its dispatcher lanes. Close releases them.
func NewService(flat *Flat, cfg Config) (*Service, error) {
	if flat == nil {
		return nil, fmt.Errorf("serve: nil compiled model")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Service{
		flat:    flat,
		cfg:     cfg,
		maxBody: bodyEnvelopeBytes + int64(cfg.MaxBatchRows)*int64(max(flat.NumFeatures(), 1))*bodyBytesPerCell,
		runID:   obs.NewRunID(),
		epoch:   time.Now(),
		queue:   make(chan *request, cfg.QueueDepth),
		stop:    make(chan struct{}),

		reqLatency:    reg.Histogram(metricRequestSec, "end-to-end /predict latency (admission to response)", LatencyBuckets),
		queueLatency:  reg.Histogram(metricQueueSec, "time from admission to batch pickup", LatencyBuckets),
		kernelLatency: reg.Histogram(metricKernelSec, "prediction kernel time per batch", LatencyBuckets),
		batchRows:     reg.Histogram(metricBatchRows, "rows per dispatched batch", BatchRowBuckets),
		requests:      reg.Counter(metricRequests, "admitted /predict requests"),
		rejected:      reg.Counter(metricRejected, "requests rejected by admission control (429)"),
		errCount:      reg.Counter(metricErrors, "requests that failed after admission"),
		rowsTotal:     reg.Counter(metricRows, "rows predicted"),
		queueDepth:    reg.Gauge(metricQueueDepth, "admission queue depth"),
		inflight:      reg.Gauge(metricInflight, "batches currently in a kernel"),
	}
	bytes := float64(flat.Bytes())
	reg.GaugeFunc(metricCompiledBytes, "compiled model footprint", func() float64 { return bytes })
	s.log = obs.L().With(obs.KeyComponent, "serve", obs.KeyRun, s.runID)
	obs.SetProcessName(ServingPID, "serving")
	for i := 0; i < cfg.Lanes; i++ {
		ln := &lane{pool: sched.NewPool(cfg.Workers)}
		if cfg.Perf {
			ln.acct = perf.NewAccounting(ln.pool.Workers())
			ln.acct.SetPhase(perf.PhasePredict)
			ln.pool.SetAccounting(ln.acct)
		}
		for w := 0; w < ln.pool.Workers(); w++ {
			ln.scratch = append(ln.scratch, flat.NewScratch())
		}
		s.lanes = append(s.lanes, ln)
		s.wg.Add(1)
		go s.dispatch(i, ln)
	}
	s.log.Info("serving armed",
		obs.KeyRows, 0,
		"trees", flat.NumTrees(), "nodes", flat.NumNodes(), "features", flat.NumFeatures(),
		"classes", flat.NumClass(), "lanes", cfg.Lanes, "queue", cfg.QueueDepth)
	return s, nil
}

// Ready reports whether the service accepts traffic — the probe to
// install behind /readyz.
func (s *Service) Ready() bool { return !s.closed.Load() }

// RunID returns the serving run id carried by every access log line.
func (s *Service) RunID() string { return s.runID }

// RequestLatency snapshots the end-to-end latency histogram (diff two
// with DiffSnapshot to cover a window).
func (s *Service) RequestLatency() obs.HistogramSnapshot { return s.reqLatency.Snapshot() }

// KernelLatency snapshots the per-batch kernel histogram.
func (s *Service) KernelLatency() obs.HistogramSnapshot { return s.kernelLatency.Snapshot() }

// Close stops admission, waits for the dispatchers to drain, and fails
// any request still queued. Safe to call once.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stop)
	s.wg.Wait()
	for {
		select {
		case r := <-s.queue:
			r.done <- fmt.Errorf("serve: shutting down")
		default:
			s.log.Info("serving stopped", obs.KeyRows, int(s.rowsTotal.Value()))
			return
		}
	}
}

// ts returns nanoseconds since the service epoch (the serving trace
// lane's clock).
func (s *Service) ts(t time.Time) int64 { return t.Sub(s.epoch).Nanoseconds() }

// dispatch is one lane's loop: pull a request, coalesce more up to
// MaxBatchRows without waiting, run the kernel, complete the requests.
func (s *Service) dispatch(id int, ln *lane) {
	defer s.wg.Done()
	for {
		var first *request
		select {
		case <-s.stop:
			return
		case first = <-s.queue:
		}
		batch := append(ln.batch[:0], first)
		rows := first.n
		for rows < s.cfg.MaxBatchRows {
			select {
			case r := <-s.queue:
				batch = append(batch, r)
				rows += r.n
			default:
				rows = s.cfg.MaxBatchRows // full: stop coalescing
			}
			if rows >= s.cfg.MaxBatchRows {
				break
			}
		}
		s.queueDepth.Set(float64(len(s.queue)))
		s.runBatch(id, ln, batch)
		clear(batch) // the served requests are garbage now
		ln.batch = batch[:0]
	}
}

// runBatch assembles the coalesced requests into one contiguous matrix,
// runs the kernel across the lane's pool, and scatters results back.
// The matrix and the scores live in the lane's buffers; the kernel itself
// is allocation-free.
func (s *Service) runBatch(laneID int, ln *lane, batch []*request) {
	batchID := s.batchSeq.Add(1)
	asmStart := time.Now()
	tid := laneID + 1
	rows := 0
	for _, r := range batch {
		s.queueLatency.Observe(asmStart.Sub(r.enq).Seconds())
		obs.SpanAt(traceCat, "queue-wait", ServingPID, 0, s.ts(r.enq), asmStart.Sub(r.enq).Nanoseconds())
		obs.FlowEndAt(traceCat, "req", ServingPID, tid, s.ts(asmStart), r.id)
		rows += r.n
	}
	k, m := s.flat.NumClass(), s.flat.numFeatures
	if cap(ln.x.Values) < rows*m {
		ln.x.Values = make([]float32, rows*m)
	}
	if cap(ln.out) < rows*k {
		ln.out = make([]float64, rows*k)
	}
	d := &ln.x
	d.N, d.M, d.Values = rows, m, d.Values[:rows*m]
	out := ln.out[:rows*k]
	at := 0
	for _, r := range batch {
		copy(d.Values[at*d.M:], *r.cells)
		at += r.n
		cellPool.Put(r.cells)
	}
	asmDur := time.Since(asmStart)
	obs.SpanAt(traceCat, "batch-assembly", ServingPID, tid, s.ts(asmStart), asmDur.Nanoseconds(),
		obs.Arg{Key: "batch", Value: batchID}, obs.Arg{Key: "rows", Value: rows})

	s.inflight.Add(1)
	kStart := time.Now()
	ln.pool.ParallelForAtLeast(rows, s.cfg.MinParallelRows, 0, func(lo, hi, w int) {
		s.flat.PredictRangeInto(d, lo, hi, out, ln.scratch[w])
	})
	kDur := time.Since(kStart)
	s.inflight.Add(-1)
	s.kernelLatency.Observe(kDur.Seconds())
	s.batchRows.Observe(float64(rows))
	s.rowsTotal.Add(int64(rows))
	obs.SpanAt(traceCat, "kernel", ServingPID, tid, s.ts(kStart), kDur.Nanoseconds(),
		obs.Arg{Key: "batch", Value: batchID}, obs.Arg{Key: "rows", Value: rows})

	at = 0
	for _, r := range batch {
		copy(r.out, out[at*k:(at+r.n)*k])
		at += r.n
		r.done <- nil
		s.log.Debug("request served",
			obs.KeyReq, r.id, obs.KeyBatch, batchID, obs.KeyRows, r.n)
	}
	s.log.Debug("batch complete",
		obs.KeyBatch, batchID, obs.KeyRows, rows, obs.KeyWorker, laneID)
}

// ServeHTTP implements POST /predict: JSON rows in, predictions out (the
// wire format is described in codec.go), 400 for a body that is not
// that format, 413 for a body over the size limit, 429 when the
// admission queue is full, 500 for a score JSON cannot carry, 503 when
// shutting down.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.closed.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	bp := bodyPool.Get().(*[]byte)
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.maxBody), *bp)
	cp := cellPool.Get().(*[]float32)
	n := 0
	if err == nil {
		*cp, n, err = decodeRows(body, s.flat.NumFeatures(), (*cp)[:0])
		if err == nil && n == 0 {
			err = errors.New("no rows")
		}
	}
	*bp = body
	bodyPool.Put(bp)
	if err != nil {
		cellPool.Put(cp)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", s.maxBody), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	k := s.flat.NumClass()
	req := &request{
		id:    s.reqSeq.Add(1),
		n:     n,
		cells: cp,
		out:   make([]float64, n*k),
		done:  make(chan error, 1),
		enq:   time.Now(),
	}
	select {
	case s.queue <- req:
	default:
		cellPool.Put(cp)
		s.rejected.Inc()
		s.log.Warn("request rejected: queue full", obs.KeyRows, n)
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}
	s.requests.Inc()
	s.queueDepth.Set(float64(len(s.queue)))
	obs.FlowStartAt(traceCat, "req", ServingPID, 0, s.ts(req.enq), req.id)
	select {
	case err = <-req.done:
	case <-s.stop:
		// Shutdown raced the request. The dispatcher or the Close drain
		// usually still completes done (buffered), but a request that
		// slipped into the queue after the drain would wait forever —
		// fail it instead.
		select {
		case err = <-req.done:
		default:
			err = fmt.Errorf("serve: shutting down")
		}
	}
	if err != nil {
		s.errCount.Inc()
		s.log.Warn("request failed", obs.KeyReq, req.id, obs.KeyError, err.Error())
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	lat := time.Since(req.enq)
	s.reqLatency.Observe(lat.Seconds())
	rp := respPool.Get().(*[]byte)
	defer respPool.Put(rp)
	*rp, err = appendResponse((*rp)[:0], req.id, req.out, k)
	if err != nil {
		s.errCount.Inc()
		s.log.Warn("request failed", obs.KeyReq, req.id, obs.KeyError, err.Error())
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(*rp); err != nil {
		s.log.Warn("response not sent", obs.KeyReq, req.id, obs.KeyError, err.Error())
		return
	}
	s.log.Info("request ok",
		obs.KeyReq, req.id, obs.KeyRows, n, "latency_us", lat.Microseconds())
}
