package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/obs"
)

func trainFlat(t *testing.T) *Flat {
	t.Helper()
	ds, _ := trainTestData(t, 1500)
	b := engineBuilders(t, ds)["harp"]
	res, err := boost.Train(b, ds, boost.Config{Rounds: 4, Objective: "binary:logistic"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Compile(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// predictPayload is the /predict request body as encoding/json sees it.
type predictPayload struct {
	Rows [][]float32 `json:"rows"`
}

// predictResponse is the /predict response body: Predictions for
// single-output models, Probabilities (one row per input) for
// multiclass.
type predictResponse struct {
	Req           uint64      `json:"req"`
	Predictions   []float64   `json:"predictions,omitempty"`
	Probabilities [][]float64 `json:"probabilities,omitempty"`
}

func postPredict(t *testing.T, url string, rows [][]float32) (*http.Response, predictResponse) {
	t.Helper()
	body, _ := json.Marshal(predictPayload{Rows: rows})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr predictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, pr
}

// TestServiceEndToEnd drives the full stack: obs server + mounted
// /predict + health endpoints + metrics exposition, with predictions
// checked against the compiled model directly.
func TestServiceEndToEnd(t *testing.T) {
	flat := trainFlat(t)
	reg := obs.NewRegistry()
	svc, err := NewService(flat, Config{Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Mount("/predict", svc)
	srv.SetReady(svc.Ready)
	base := "http://" + srv.Addr()

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", ep, resp.StatusCode)
		}
	}

	m := flat.NumFeatures()
	rows := make([][]float32, 5)
	for i := range rows {
		rows[i] = make([]float32, m)
		for f := range rows[i] {
			rows[i][f] = float32(i*m+f) * 0.01
		}
	}
	resp, pr := postPredict(t, base+"/predict", rows)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d", resp.StatusCode)
	}
	if len(pr.Predictions) != 5 || pr.Req == 0 {
		t.Fatalf("response shape: req=%d n=%d", pr.Req, len(pr.Predictions))
	}
	s := flat.NewScratch()
	for i, row := range rows {
		if want := flat.PredictRow(row, s); pr.Predictions[i] != want {
			t.Fatalf("row %d: served %v != direct %v", i, pr.Predictions[i], want)
		}
	}

	// Bad requests.
	if resp, _ := postPredict(t, base+"/predict", [][]float32{{1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short row: %d", resp.StatusCode)
	}
	if resp, _ := postPredict(t, base+"/predict", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty rows: %d", resp.StatusCode)
	}
	if resp, err := http.Get(base + "/predict"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET predict: %d", resp.StatusCode)
		}
	}

	// Metrics exposition carries the serving names.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		metricRequests, metricRequestSec + "_bucket", metricKernelSec + "_count",
		metricQueueDepth, metricBatchRows, metricRows, metricCompiledBytes,
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}

	// Shutdown: readiness flips, predict refuses.
	svc.Close()
	resp2, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close: %d", resp2.StatusCode)
	}
	if resp, _ := postPredict(t, base+"/predict", rows); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict after close: %d", resp.StatusCode)
	}
}

// TestServiceConcurrentLoad fires many concurrent requests and checks
// the accounting: every admitted row is predicted and counted.
func TestServiceConcurrentLoad(t *testing.T) {
	flat := trainFlat(t)
	reg := obs.NewRegistry()
	svc, err := NewService(flat, Config{Registry: reg, Workers: 2, Lanes: 2, QueueDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := obs.Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Mount("/predict", svc)
	url := "http://" + srv.Addr() + "/predict"

	m := flat.NumFeatures()
	const clients, perClient = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows := [][]float32{make([]float32, m), make([]float32, m)}
			for i := range rows[0] {
				rows[0][i] = float32(c) * 0.1
				rows[1][i] = float32(c) * 0.2
			}
			body, _ := json.Marshal(predictPayload{Rows: rows})
			for r := 0; r < perClient; r++ {
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantRows := int64(clients * perClient * 2)
	if got := svc.rowsTotal.Value(); got != wantRows {
		t.Fatalf("rows_total %d, want %d", got, wantRows)
	}
	if got := svc.requests.Value(); got != clients*perClient {
		t.Fatalf("requests_total %d, want %d", got, clients*perClient)
	}
	if svc.RequestLatency().Count != clients*perClient {
		t.Fatalf("latency count %d", svc.RequestLatency().Count)
	}
}

// TestServiceAdmissionControl pins the 429 path: with the dispatchers
// halted and the queue full, a request is rejected and counted instead
// of queued without bound.
func TestServiceAdmissionControl(t *testing.T) {
	flat := trainFlat(t)
	reg := obs.NewRegistry()
	svc, err := NewService(flat, Config{Registry: reg, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Halt the dispatchers so the queue cannot drain, then fill it.
	close(svc.stop)
	svc.wg.Wait()
	for i := 0; i < 2; i++ {
		svc.queue <- &request{done: make(chan error, 1)}
	}
	srv, err := obs.Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Mount("/predict", svc)
	row := make([]float32, flat.NumFeatures())
	resp, _ := postPredict(t, "http://"+srv.Addr()+"/predict", [][]float32{row})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d, want 429", resp.StatusCode)
	}
	if svc.rejected.Value() != 1 {
		t.Fatalf("rejected %d", svc.rejected.Value())
	}
	// Manual teardown (Close would close stop twice).
	svc.closed.Store(true)
	for {
		select {
		case r := <-svc.queue:
			r.done <- nil
		default:
			return
		}
	}
}

// TestServiceBodyLimit pins the request size limit: a body of exactly
// maxBody bytes is served, one byte more is answered 413 before
// admission (no counter moves), and the largest request the limit is
// derived from — MaxBatchRows rows of full-precision values — fits.
func TestServiceBodyLimit(t *testing.T) {
	flat := trainFlat(t)
	svc, err := NewService(flat, Config{Registry: obs.NewRegistry(), Workers: 1, MaxBatchRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	post := func(body []byte) int {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		return rec.Code
	}
	rows := make([][]float32, 8)
	for i := range rows {
		rows[i] = make([]float32, flat.NumFeatures())
		for j := range rows[i] {
			rows[i][j] = -1.17549435e-38
		}
	}
	full, _ := json.Marshal(predictPayload{Rows: rows})
	if int64(len(full)) > svc.maxBody {
		t.Fatalf("a MaxBatchRows request takes %d bytes, limit %d", len(full), svc.maxBody)
	}
	// Pad inside the object, so the decoder must read every byte.
	padded := func(n int64) []byte {
		pad := bytes.Repeat([]byte{' '}, int(n)-len(full))
		return append(append(append([]byte(nil), full[:len(full)-1]...), pad...), '}')
	}
	if code := post(padded(svc.maxBody)); code != http.StatusOK {
		t.Fatalf("body of exactly the limit: %d, want 200", code)
	}
	if code := post(padded(svc.maxBody + 1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the limit: %d, want 413", code)
	}
	if svc.requests.Value() != 1 || svc.rejected.Value() != 0 || svc.errCount.Value() != 0 {
		t.Fatalf("ledger after one served and one oversized request: requests %d rejected %d errors %d",
			svc.requests.Value(), svc.rejected.Value(), svc.errCount.Value())
	}
}

// TestServiceMulticlassResponse checks the probability response shape
// against the compiled model.
func TestServiceMulticlassResponse(t *testing.T) {
	_, flat, _ := trainBlobs(t, 600, 4, 4)
	svc, err := NewService(flat, Config{Registry: obs.NewRegistry(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := obs.Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Mount("/predict", svc)
	rows := [][]float32{{0.5, 0.5}, {4, 1}}
	resp, pr := postPredict(t, "http://"+srv.Addr()+"/predict", rows)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(pr.Probabilities) != 2 || len(pr.Probabilities[0]) != 3 {
		t.Fatalf("proba shape %v", pr.Probabilities)
	}
	s := flat.NewScratch()
	out := make([]float64, 3)
	for i, row := range rows {
		flat.PredictProbaRow(row, s, out)
		for c := range out {
			if pr.Probabilities[i][c] != out[c] {
				t.Fatalf("row %d class %d: %v != %v", i, c, pr.Probabilities[i][c], out[c])
			}
		}
	}
}

// TestRunBatchAllocationFlat: a warm runBatch allocates as many bytes for a
// 256-row batch as for a 16-row one, because the batch's matrix and scores
// live in the lane, grown to the largest batch seen. What is left per
// batch is fixed: the kernel closure and the boxed trace and log
// arguments. Those differ by one 8-byte box per row-count argument, since
// Go boxes integers up to 255 without allocating (the warm-up takes the
// batch counter past that); the bound is set above that, far below the
// 28 kB that 240 more rows cost a matrix.
func TestRunBatchAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	flat := trainFlat(t)
	s, err := NewService(flat, Config{Lanes: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // the lane's dispatcher exits; runBatch is driven from here
	ln, m, k := s.lanes[0], flat.NumFeatures(), flat.NumClass()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep cellPool's buffers
	perBatch := func(rows int) float64 {
		cells := make([]float32, rows*m)
		for i := range cells {
			cells[i] = float32(i%7) - 3
		}
		req := &request{n: rows, out: make([]float64, rows*k), done: make(chan error, 1)}
		batch := []*request{req}
		run := func() {
			cp := cellPool.Get().(*[]float32)
			*cp = append((*cp)[:0], cells...)
			req.cells = cp
			s.runBatch(0, ln, batch)
			if err := <-req.done; err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 300; i++ {
			run() // warm: the lane's buffers, the pooled cells, the batch counter
		}
		// The least of three windows: now and then the harness's
		// cellPool.Get runs on another P than the Put before it, misses,
		// and allocates a buffer of the batch's size.
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const calls = 1000
			for i := 0; i < calls; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/calls)
		}
		return least
	}
	small, large := perBatch(16), perBatch(256)
	t.Logf("a warm runBatch allocates %.0f bytes for 16 rows and %.0f for 256", small, large)
	if large-small > 64 {
		t.Errorf("a warm runBatch allocates %.0f bytes for 16 rows and %.0f for 256", small, large)
	}
}
