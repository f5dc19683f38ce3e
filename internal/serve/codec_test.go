package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"harpgbdt/internal/boost"
	"harpgbdt/internal/dataset"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/synth"
)

// edgeService serves the two-feature edge model.
func edgeService(tb testing.TB) *Service {
	tb.Helper()
	flat, err := Compile(edgeModel())
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := NewService(flat, Config{Registry: obs.NewRegistry(), Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	return svc
}

var (
	nan32 = float32(math.NaN())
	negZ  = float32(math.Copysign(0, -1))
)

// predictCases are request bodies for a two-feature model. A case with
// err == "" decodes to cells; otherwise the decoder's error contains err.
// They are also FuzzPredictRequest's seed corpus.
var predictCases = []struct {
	name, body string
	cells      []float32
	err        string
}{
	{"one row", `{"rows":[[1,2]]}`, []float32{1, 2}, ""},
	{"whitespace everywhere", " \t\r\n{ \"rows\" \n:\t[ [ 1 ,\r2 ] , [3,4]\n]\n} \n", []float32{1, 2, 3, 4}, ""},
	{"padded before the brace", `{"rows":[[1,2]]` + strings.Repeat(" ", 64) + `}`, []float32{1, 2}, ""},
	{"null is missing", `{"rows":[[null,2],[1, null ]]}`, []float32{nan32, 2, 1, nan32}, ""},
	{"negative zero", `{"rows":[[-0,-0.0]]}`, []float32{negZ, negZ}, ""},
	{"exponents", `{"rows":[[1E+2,25e-1]]}`, []float32{100, 2.5}, ""},
	{"subnormals", `{"rows":[[1e-45,-1.1754942e-38]]}`,
		[]float32{math.Float32frombits(1), -math.Float32frombits(0x007fffff)}, ""},
	{"underflow to zero", `{"rows":[[1e-50,-1e-50]]}`, []float32{0, negZ}, ""},
	{"float32 max", `{"rows":[[3.4028235e38,-3.4028235E+38]]}`, []float32{math.MaxFloat32, -math.MaxFloat32}, ""},
	{"long token", `{"rows":[[0.100000000000000000000000000000000000001,2]]}`, []float32{0.1, 2}, ""},
	{"no rows", `{"rows":[]}`, nil, ""},

	{"range", `{"rows":[[1e39,2]]}`, nil, "out of the float32 range"},
	{"negative range", `{"rows":[[1,-3.5e38]]}`, nil, "out of the float32 range"},
	{"NaN", `{"rows":[[NaN,2]]}`, nil, "expected a JSON number or null"},
	{"Infinity", `{"rows":[[Infinity,2]]}`, nil, "expected a JSON number or null"},
	{"-Infinity", `{"rows":[[-Infinity,2]]}`, nil, "expected a JSON number or null"},
	{"plus sign", `{"rows":[[+1,2]]}`, nil, "expected a JSON number or null"},
	{"hex float", `{"rows":[[0x1p3,2]]}`, nil, "expected , or ]"},
	{"leading zero", `{"rows":[[01,2]]}`, nil, "expected , or ]"},
	{"bare point", `{"rows":[[1.,2]]}`, nil, "expected a JSON number or null"},
	{"point first", `{"rows":[[.5,2]]}`, nil, "expected a JSON number or null"},
	{"bare exponent", `{"rows":[[1e,2]]}`, nil, "expected a JSON number or null"},
	{"signed bare exponent", `{"rows":[[1e+,2]]}`, nil, "expected a JSON number or null"},
	{"string cell", `{"rows":[["1",2]]}`, nil, "expected a JSON number or null"},
	{"true cell", `{"rows":[[true,2]]}`, nil, "expected a JSON number or null"},
	{"nul", `{"rows":[[nul,2]]}`, nil, "expected a JSON number or null"},
	{"nulll", `{"rows":[[nulll,2]]}`, nil, "expected , or ]"},
	{"unknown key after", `{"rows":[[1,2]],"x":1}`, nil, `only the key "rows" is allowed`},
	{"unknown key before", `{"x":1,"rows":[[1,2]]}`, nil, `only the key "rows" is allowed`},
	{"key case", `{"Rows":[[1,2]]}`, nil, `only the key "rows" is allowed`},
	{"escaped key", `{"\u0072ows":[[1,2]]}`, nil, `only the key "rows" is allowed`},
	{"duplicate key", `{"rows":[[1,2]],"rows":[[3,4]]}`, nil, `duplicate key "rows"`},
	{"missing key", `{ }`, nil, `missing the key "rows"`},
	{"trailing bytes", `{"rows":[[1,2]]}x`, nil, "trailing bytes"},
	{"second object", `{"rows":[[1,2]]}{}`, nil, "trailing bytes"},
	{"extra brace", `{"rows":[[1,2]]}}`, nil, "trailing bytes"},
	{"short row", `{"rows":[[1,2],[1]]}`, nil, "row 1 has 1 features, model expects 2"},
	{"empty row", `{"rows":[[]]}`, nil, "row 0 has 0 features, model expects 2"},
	{"long row", `{"rows":[[1,2,3]]}`, nil, "row 0 has more than 2 features, model expects 2"},
	{"long row fails at its third cell", `{"rows":[[1,2,x`, nil, "row 0 has more than 2 features"},
	{"trailing comma in row", `{"rows":[[1,2,]]}`, nil, "more than 2 features"},
	{"trailing comma in rows", `{"rows":[[1,2],]}`, nil, "row 1: expected ["},
	{"trailing comma in object", `{"rows":[[1,2]],}`, nil, `only the key "rows" is allowed`},
	{"missing separator", `{"rows":[[1 2]]}`, nil, "row 0: expected , or ]"},
	{"double comma", `{"rows":[[1,,2]]}`, nil, "expected a JSON number or null"},
	{"flat rows", `{"rows":[1,2]}`, nil, "row 0: expected ["},
	{"null rows", `{"rows":null}`, nil, "rows: expected ["},
	{"null row", `{"rows":[null]}`, nil, "row 0: expected ["},
	{"unterminated", `{"rows":[[1,2]]`, nil, "expected , or }"},
	{"missing colon", `{"rows"[[1,2]]}`, nil, "expected :"},
	{"array body", `[[1,2]]`, nil, "expected {"},
	{"empty body", ``, nil, "expected {"},
}

// TestDecodeRows runs the table through the decoder, then through the
// fuzz body (encoding/json agreement, the service's status code and its
// request ledger), which makes it the replay of FuzzPredictRequest's
// seed corpus in plain go test runs.
func TestDecodeRows(t *testing.T) {
	svc := edgeService(t)
	var l requestLedger
	for _, c := range predictCases {
		t.Run(c.name, func(t *testing.T) {
			cells, n, err := decodeRows([]byte(c.body), 2, nil)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("error %v, want one containing %q", err, c.err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else {
				if n*2 != len(c.cells) || len(cells) != len(c.cells) {
					t.Fatalf("%d rows, %d cells; want %d cells", n, len(cells), len(c.cells))
				}
				for i, v := range cells {
					if math.Float32bits(v) != math.Float32bits(c.cells[i]) && !(v != v && c.cells[i] != c.cells[i]) {
						t.Fatalf("cell %d: %v (%#x), want %v (%#x)", i, v, math.Float32bits(v), c.cells[i], math.Float32bits(c.cells[i]))
					}
				}
			}
			checkPredictRequest(t, svc, &l, []byte(c.body))
		})
	}
}

// TestDecodeRowsZeroAlloc pins the warm decode of a 16 × 28 request
// (nulls included) and the encode of its response at zero allocations,
// the way the kernel is pinned.
func TestDecodeRowsZeroAlloc(t *testing.T) {
	const n, m = 16, 28
	rng := synth.NewRNG(7)
	var sb strings.Builder
	sb.WriteString(`{"rows":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for f := 0; f < m; f++ {
			if f > 0 {
				sb.WriteByte(',')
			}
			if f%7 == 3 {
				sb.WriteString("null")
				continue
			}
			sb.WriteString(strconv.FormatFloat(float64(float32(rng.NormFloat64()*1e3)), 'g', -1, 32))
		}
		sb.WriteByte(']')
	}
	sb.WriteString("]}")
	body := []byte(sb.String())
	cells := make([]float32, 0, n*m)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		var rows int
		cells, rows, err = decodeRows(body, m, cells[:0])
		if rows != n {
			t.Fatalf("%d rows", rows)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("decodeRows allocates %v times per warm call, want 0", allocs)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	resp := make([]byte, 0, 1<<10)
	if allocs := testing.AllocsPerRun(100, func() { resp, err = appendResponse(resp[:0], 12345, out, 1) }); allocs != 0 || err != nil {
		t.Errorf("appendResponse allocates %v times per warm call (err %v), want 0", allocs, err)
	}
}

// TestAppendResponseMatchesEncodingJSON holds the response encoder to
// json.Marshal of the response struct, byte for byte, on random finite
// float64s of every magnitude plus the edges of encoding/json's float
// format, in both response shapes.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.5, 1e-7, 1.5e-10, 123456789, 1e20,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32, 1e100, 1e-100,
	}
	rng := synth.NewRNG(2019)
	for len(vals) < 4000 {
		var v float64
		switch len(vals) % 3 {
		case 0: // every exponent
			v = math.Float64frombits(rng.Uint64())
		case 1: // a probability
			v = rng.Float64()
		default: // a margin
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	for _, k := range []int{1, 3} {
		for lo := 0; lo+k <= len(vals); lo += 15 * k {
			out := vals[lo:min(lo+15*k, len(vals)/k*k)]
			id := rng.Uint64() >> rng.Intn(64)
			want := predictResponse{Req: id}
			if k == 1 {
				want.Predictions = out
			} else {
				for i := 0; i < len(out); i += k {
					want.Probabilities = append(want.Probabilities, out[i:i+k])
				}
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendResponse(nil, id, out, k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(wantBody, '\n')) {
				t.Fatalf("k %d:\n got %s\nwant %s", k, got, wantBody)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(predictResponse{Predictions: []float64{bad}}); err == nil {
			t.Fatalf("json.Marshal accepted %v", bad)
		}
		if _, err := appendResponse(nil, 1, []float64{0.5, bad}, 1); err == nil {
			t.Errorf("appendResponse accepted %v", bad)
		}
	}
}

// TestServeNullIsMissing holds a served null to Model.Predict on NaN:
// on a missing-heavy YFCC-like model, whose splits learned where missing
// values go, a row posted with null cells scores bit-identically to the
// same row with NaN cells, both decoded into the kernel and over HTTP.
func TestServeNullIsMissing(t *testing.T) {
	ds, testX, _, err := synth.MakeTrainTest(
		synth.Config{Spec: synth.YFCCLike, Rows: 1500, Features: 24, Seed: 2019}, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := boost.Train(engineBuilders(t, ds)["harp"], ds,
		boost.Config{Rounds: 6, Objective: "binary:logistic"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	model := res.Model
	flat, err := Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, testX.N)
	nullDiffers := 0
	var sb strings.Builder
	sb.WriteString(`{"rows":[`)
	for i := 0; i < testX.N; i++ {
		row := testX.Row(i)
		want[i] = model.Predict(row)
		zeroed := append([]float32(nil), row...)
		for f, v := range row {
			if v != v {
				zeroed[f] = 0
			}
		}
		if model.Predict(zeroed) != want[i] {
			nullDiffers++
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for f, v := range row {
			if f > 0 {
				sb.WriteByte(',')
			}
			if v != v {
				sb.WriteString("null")
			} else {
				sb.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
			}
		}
		sb.WriteByte(']')
	}
	sb.WriteString("]}")
	body := []byte(sb.String())
	if nullDiffers == 0 {
		t.Fatal("no row scores differently with its missing cells read as 0; the test shows nothing")
	}

	cells, n, err := decodeRows(body, flat.NumFeatures(), nil)
	if err != nil || n != testX.N {
		t.Fatalf("decode: %d rows, %v", n, err)
	}
	got := make([]float64, n)
	flat.PredictRangeInto(&dataset.Dense{N: n, M: flat.NumFeatures(), Values: cells}, 0, n, got, flat.NewScratch())
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d decoded: flat %v != Model.Predict %v", i, got[i], want[i])
		}
	}

	svc, err := NewService(flat, Config{Registry: obs.NewRegistry(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var pr predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != testX.N {
		t.Fatalf("%d predictions for %d rows", len(pr.Predictions), testX.N)
	}
	for i, v := range pr.Predictions {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("row %d served: %v != Model.Predict %v (%d of %d rows score differently with 0 for missing)",
				i, v, want[i], nullDiffers, testX.N)
		}
	}
}

// TestServiceNonFiniteScore pins the 500: a model whose raw margin
// overflows to +Inf is answered with an error counted in
// serve_errors_total, not with a 200 and an empty body.
func TestServiceNonFiniteScore(t *testing.T) {
	m := edgeModel()
	m.Objective = "no-such-objective" // raw margin
	m.Trees[1].Nodes[0].Weight = math.MaxFloat64
	m.Trees = append(m.Trees, m.Trees[1])
	flat, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(flat, Config{Registry: obs.NewRegistry(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"rows":[[1,2]]}`)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if svc.requests.Value() != 1 || svc.errCount.Value() != 1 {
		t.Fatalf("requests %d errors %d, want 1 and 1", svc.requests.Value(), svc.errCount.Value())
	}
}

// jsonRows is the fuzz oracle: encoding/json's reading of body as the
// one object {"rows": [[…], …]}, with the key spelled exactly so and
// given once, nothing after the object, and every row m wide. It
// reports whether encoding/json accepts the body in that shape.
func jsonRows(body []byte, m int) ([]float32, bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	var rows [][]float32
	seen := false
	for dec.More() {
		start := dec.InputOffset()
		if _, err := dec.Token(); err != nil {
			return nil, false
		}
		key := bytes.TrimLeft(body[start:dec.InputOffset()], " \t\r\n,")
		if seen || string(key) != `"rows"` {
			return nil, false
		}
		seen = true
		if err := dec.Decode(&rows); err != nil {
			return nil, false
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') || !seen {
		return nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false
	}
	cells := []float32{}
	for _, row := range rows {
		if len(row) != m {
			return nil, false
		}
		cells = append(cells, row...)
	}
	return cells, true
}

// requestLedger is the client side of the service's request ledger.
type requestLedger struct {
	sent, refused int64 // refused: 400 and 413, answered before admission
}

// checkPredictRequest is the fuzz body. On a body without null the
// decoder must accept exactly what encoding/json accepts, to the bit.
// Posted to the service, the body must get the status its decode
// implies, a 200 must carry the kernel's scores for the decoded cells,
// and serve_requests_total + serve_rejected_total + refused must equal
// the requests sent.
func checkPredictRequest(t *testing.T, svc *Service, l *requestLedger, body []byte) {
	m := svc.flat.NumFeatures()
	cells, n, err := decodeRows(body, m, nil)
	if !bytes.Contains(body, []byte("null")) {
		want, ok := jsonRows(body, m)
		if ok != (err == nil) {
			t.Fatalf("encoding/json accepts: %v, decodeRows error: %v", ok, err)
		}
		if ok {
			if len(want) != len(cells) || n*m != len(cells) {
				t.Fatalf("%d rows, %d cells; encoding/json read %d cells", n, len(cells), len(want))
			}
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(cells[i]) {
					t.Fatalf("cell %d: %v, encoding/json read %v", i, cells[i], want[i])
				}
			}
		}
	}

	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	l.sent++
	wantCode := http.StatusOK
	switch {
	case int64(len(body)) > svc.maxBody:
		wantCode = http.StatusRequestEntityTooLarge
	case err != nil || n == 0:
		wantCode = http.StatusBadRequest
	}
	if rec.Code != wantCode {
		t.Fatalf("status %d, want %d (decode: %d rows, %v): %s", rec.Code, wantCode, n, err, rec.Body)
	}
	if wantCode != http.StatusOK {
		l.refused++
	} else {
		var pr predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatalf("response %q: %v", rec.Body, err)
		}
		want := make([]float64, n)
		svc.flat.PredictRangeInto(&dataset.Dense{N: n, M: m, Values: cells}, 0, n, want, svc.flat.NewScratch())
		if len(pr.Predictions) != n {
			t.Fatalf("%d predictions for %d rows", len(pr.Predictions), n)
		}
		for i := range want {
			if math.Float64bits(pr.Predictions[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d: served %v, kernel %v", i, pr.Predictions[i], want[i])
			}
		}
	}
	if got := svc.requests.Value() + svc.rejected.Value() + l.refused; got != l.sent {
		t.Fatalf("ledger: requests %d + rejected %d + refused %d != sent %d",
			svc.requests.Value(), svc.rejected.Value(), l.refused, l.sent)
	}
}

// FuzzPredictRequest fuzzes /predict bodies against encoding/json and
// the service's request ledger (see checkPredictRequest).
func FuzzPredictRequest(f *testing.F) {
	for _, c := range predictCases {
		f.Add([]byte(c.body))
	}
	svc := edgeService(f)
	var l requestLedger
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPredictRequest(t, svc, &l, body)
	})
}
