package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/serve"
	"harpgbdt/internal/synth"
)

// Headers carrying the client span to the traced handler wrapper.
const (
	headerTrace  = "X-Bench-Trace"
	headerParent = "X-Bench-Parent"
)

// payloads is the pre-encoded request set of one workload: bodies drawn
// from held-out rows, with the compiled model's output for each.
type payloads struct {
	bodies [][]byte
	expect [][]float64
	rows   int
}

// makePayloads draws n requests of reqRows rows each from x. JSON cannot
// carry NaN, so missing values travel as 0; the expected scores are the
// compiled model's for exactly the rows sent.
func makePayloads(flat *serve.Flat, x *dataset.Dense, n, reqRows int, rng *synth.RNG) (*payloads, error) {
	p := &payloads{rows: reqRows}
	scratch := flat.NewScratch()
	for b := 0; b < n; b++ {
		d := dataset.NewDense(reqRows, x.M)
		rows := make([][]float32, reqRows)
		for i := range rows {
			row := d.Row(i)
			copy(row, x.Row(rng.Intn(x.N)))
			for f, v := range row {
				if v != v {
					row[f] = 0
				}
			}
			rows[i] = row
		}
		body, err := json.Marshal(struct {
			Rows [][]float32 `json:"rows"`
		}{rows})
		if err != nil {
			return nil, fmt.Errorf("encode request body: %w", err)
		}
		out := make([]float64, reqRows)
		flat.PredictRangeInto(d, 0, reqRows, out, scratch)
		p.bodies = append(p.bodies, body)
		p.expect = append(p.expect, out)
	}
	return p, nil
}

// matches reports whether a 200 body carries exactly the expected scores.
func (p *payloads) matches(idx int, body []byte) bool {
	var resp struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	want := p.expect[idx]
	if len(resp.Predictions) != len(want) {
		return false
	}
	for i, v := range resp.Predictions {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// ledger is the client-side account of one load phase. It conserves:
// Sent == OK + Rejected + Errors. Mismatch counts 200 bodies that did
// not decode to the compiled model's scores (a subset of OK).
type ledger struct {
	Sent, OK, Rejected, Errors, Mismatch int64
}

func (l *ledger) add(o ledger) {
	l.Sent += o.Sent
	l.OK += o.OK
	l.Rejected += o.Rejected
	l.Errors += o.Errors
	l.Mismatch += o.Mismatch
}

// loadResult is a load phase's ledger plus the latencies (µs, sorted) of
// the 200 responses inside the timed window, and the window's length.
type loadResult struct {
	ledger
	LatUS   []float64
	Elapsed time.Duration
	// TracedUS and PlainUS split LatUS in a traced closed loop, where
	// every other request carries spans; their medians differ by what
	// tracing a request costs.
	TracedUS, PlainUS []float64
	GenLate           []float64 // open loop only: send time - due time, µs, sorted
	firstErr          error
}

// client is one connection's worth of load: its own keep-alive
// transport, so W clients hold exactly W connections.
type client struct {
	http *http.Client
	url  string
	p    *payloads
	tr   *tracer
	buf  bytes.Buffer
}

func newClient(url string, p *payloads, tr *tracer) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   30 * time.Second,
		},
		url: url, p: p, tr: tr,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends body idx and reads the whole response. from is when the
// caller's latency clock started (send time in a closed loop, due time
// in an open one). It returns the latency and accounts the outcome.
func (c *client) do(idx int, trace int64, from time.Time, l *ledger, traced bool) (time.Duration, bool, error) {
	tr := c.tr
	if !traced {
		tr = nil
	}
	l.Sent++
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.p.bodies[idx]))
	if err != nil {
		l.Errors++
		return 0, false, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	sp := tr.begin("client.request", -1, trace)
	if sp >= 0 {
		req.Header.Set(headerTrace, strconv.FormatInt(trace, 10))
		req.Header.Set(headerParent, strconv.Itoa(int(sp)))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		tr.end(sp)
		l.Errors++
		return 0, false, fmt.Errorf("POST /predict: %w", err)
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	lat := time.Since(from)
	tr.end(sp)
	closeErr := resp.Body.Close()
	if err == nil {
		err = closeErr
	}
	switch {
	case err != nil:
		l.Errors++
		return lat, false, fmt.Errorf("read /predict response: %w", err)
	case resp.StatusCode == http.StatusOK:
		l.OK++
		if !c.p.matches(idx, c.buf.Bytes()) {
			l.Mismatch++
		}
		return lat, true, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		l.Rejected++
		return lat, false, nil
	default:
		l.Errors++
		return lat, false, fmt.Errorf("/predict status %d", resp.StatusCode)
	}
}

// closedLoop is `clients` callers that each wait for the reply before
// sending the next request. The callers and their connections persist
// across run calls, so the timed window can be cut into slices with
// other work in between. Latency is send to body read. With a tracer,
// every other request carries a client and a handler span.
type closedLoop struct {
	p       *payloads
	tr      *tracer
	callers []*caller
	elapsed time.Duration
}

// caller is one closed-loop client: its connection, its draws and its
// share of the result.
type caller struct {
	cl  *client
	rng *synth.RNG
	id  int64
	n   int64
	res loadResult
}

func newClosedLoop(url string, p *payloads, clients int, seed uint64, tr *tracer) *closedLoop {
	g := &closedLoop{p: p, tr: tr}
	for c := 0; c < clients; c++ {
		g.callers = append(g.callers, &caller{
			cl:  newClient(url, p, tr),
			rng: synth.NewRNG(seed + uint64(c)*0x9e3779b97f4a7c15),
			id:  int64(c),
		})
	}
	return g
}

// slice is one timed run of the closed loop: how many 200 responses it
// got in how long.
type slice struct {
	OK      int
	Elapsed time.Duration
}

// run lets every caller send for d and waits for them. Only a timed run
// records latencies and counts towards the window's length; every run
// is accounted in the ledger.
func (g *closedLoop) run(d time.Duration, timed bool) slice {
	from := make([]int, len(g.callers))
	for i, c := range g.callers {
		from[i] = len(c.res.LatUS)
	}
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range g.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			r := &c.res
			for ; ; c.n++ {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				traced := g.tr != nil && c.n%2 == 0
				lat, ok, err := c.cl.do(c.rng.Intn(len(g.p.bodies)), c.id<<40|c.n, t0, &r.ledger, traced)
				if err != nil && r.firstErr == nil {
					r.firstErr = err
				}
				if ok && timed {
					us := float64(lat.Nanoseconds()) / 1e3
					r.LatUS = append(r.LatUS, us)
					switch {
					case traced:
						r.TracedUS = append(r.TracedUS, us)
					case g.tr != nil:
						r.PlainUS = append(r.PlainUS, us)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var sl slice
	if timed {
		sl.Elapsed = time.Since(start)
		g.elapsed += sl.Elapsed
		for i, c := range g.callers {
			sl.OK += len(c.res.LatUS) - from[i]
		}
	}
	return sl
}

// close drops the connections and returns the pooled result.
func (g *closedLoop) close() loadResult {
	parts := make([]loadResult, len(g.callers))
	for i, c := range g.callers {
		c.cl.close()
		parts[i] = c.res
	}
	out := mergeLoad(parts)
	out.Elapsed = g.elapsed
	return out
}

// openLoop sends on a Poisson schedule of the given rate regardless of
// replies, over `conns` connections. Latency runs from the time a
// request was due, so a stall delays — and is charged to — the requests
// behind it; GenLate reports how late the generator itself ran.
func openLoop(url string, p *payloads, conns int, rate float64, dur time.Duration, seed uint64) loadResult {
	type job struct {
		idx int
		due time.Time
		n   int64
	}
	// Sized to the whole schedule so the generator never blocks on a
	// slow server: blocking would close the loop.
	jobs := make(chan job, int(rate*dur.Seconds()*2)+16)
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &parts[c]
			cl := newClient(url, p, nil)
			defer cl.close()
			for j := range jobs {
				r.GenLate = append(r.GenLate, float64(time.Since(j.due).Nanoseconds())/1e3)
				lat, ok, err := cl.do(j.idx, j.n, j.due, &r.ledger, false)
				if err != nil && r.firstErr == nil {
					r.firstErr = err
				}
				if ok {
					r.LatUS = append(r.LatUS, float64(lat.Nanoseconds())/1e3)
				}
			}
		}(c)
	}
	rng := synth.NewRNG(seed ^ 0x6f70656e)
	start := time.Now()
	at := 0.0
	for n := int64(0); ; n++ {
		at += rng.ExpFloat64() / rate
		if at > dur.Seconds() {
			break
		}
		due := start.Add(time.Duration(at * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{idx: rng.Intn(len(p.bodies)), due: due, n: n}
	}
	close(jobs)
	wg.Wait()
	out := mergeLoad(parts)
	out.Elapsed = time.Since(start)
	return out
}

func mergeLoad(parts []loadResult) loadResult {
	var out loadResult
	for _, r := range parts {
		out.ledger.add(r.ledger)
		out.LatUS = append(out.LatUS, r.LatUS...)
		out.TracedUS = append(out.TracedUS, r.TracedUS...)
		out.PlainUS = append(out.PlainUS, r.PlainUS...)
		out.GenLate = append(out.GenLate, r.GenLate...)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	sort.Float64s(out.LatUS)
	sort.Float64s(out.GenLate)
	return out
}

// tracedHandler records a serve.ServeHTTP span as the child of the
// client span named in the request headers.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, err1 := strconv.ParseInt(r.Header.Get(headerTrace), 10, 64)
		parent, err2 := strconv.Atoi(r.Header.Get(headerParent))
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("serve.ServeHTTP", int32(parent), trace)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}
