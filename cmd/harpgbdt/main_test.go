package main

// CLI integration tests: the binary is built once per test run and driven
// through a full train / eval / predict / importance / dump / cv / stats /
// serve workflow on generated data.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"harpgbdt"
)

// buildCLI compiles the command into dir and returns the binary path.
func buildCLI(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "harpgbdt-cli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	model := filepath.Join(dir, "model.json")
	data := filepath.Join(dir, "train.libsvm")

	// datagen is a separate command; generate via the train -synth path and
	// a predict round trip instead. First write a small libsvm file by
	// training on synthetic data and predicting on a file we create below.
	out := runCLI(t, bin, "train", "-synth", "higgs", "-rows", "3000", "-trees", "8",
		"-d", "5", "-model", model, "-eval-every", "4")
	if !strings.Contains(out, "model saved") {
		t.Fatalf("train output: %s", out)
	}
	if !strings.Contains(out, "trainAUC") {
		t.Fatalf("no eval lines: %s", out)
	}

	// Handcrafted libsvm test file with the model's feature count (28).
	lib := "1 0:0.5 1:1.2 5:0.3\n0 0:-0.5 2:2.0\n1 3:1\n"
	if err := os.WriteFile(data, []byte(lib), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCLI(t, bin, "eval", "-data", data, "-features", "28", "-model", model)
	if !strings.Contains(out, "AUC") {
		t.Fatalf("eval output: %s", out)
	}

	preds := filepath.Join(dir, "preds.txt")
	runCLI(t, bin, "predict", "-data", data, "-features", "28", "-model", model, "-out", preds)
	content, err := os.ReadFile(preds)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(content), "\n"); lines != 3 {
		t.Fatalf("predictions: %q", content)
	}
	// predict scores through the compiled kernel; its output must be the
	// bytes the naive Model.PredictDense walk would have printed.
	m, err := harpgbdt.LoadModel(model)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := harpgbdt.ReadLibSVMRaw(strings.NewReader(lib), 28)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := m.PredictDense(x)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, p := range naive {
		fmt.Fprintf(&want, "%.6f\n", p)
	}
	if string(content) != want.String() {
		t.Fatalf("predict printed %q, the naive walk gives %q", content, want.String())
	}

	out = runCLI(t, bin, "importance", "-model", model, "-top", "3")
	if !strings.Contains(out, "f") {
		t.Fatalf("importance output: %s", out)
	}

	out = runCLI(t, bin, "dump", "-model", model)
	if !strings.Contains(out, "booster[0]:") {
		t.Fatalf("dump output: %s", out)
	}

	out = runCLI(t, bin, "stats", "-synth", "airline", "-rows", "500")
	if !strings.Contains(out, "M=8") {
		t.Fatalf("stats output: %s", out)
	}

	out = runCLI(t, bin, "cv", "-synth", "higgs", "-rows", "1200", "-folds", "2", "-trees", "3", "-d", "4")
	if !strings.Contains(out, "cv AUC") {
		t.Fatalf("cv output: %s", out)
	}

	serveLeg(t, bin, model)
}

// serveLeg drives `harpgbdt serve`, the one production composition of the
// prediction service (load, compile, /predict mounted on the obs server,
// readiness probe, signal shutdown): the answer over HTTP must equal
// Model.Predict bit for bit, a malformed request must be refused, and
// SIGTERM must end the process cleanly.
func serveLeg(t *testing.T, bin, model string) {
	t.Helper()
	cmd := exec.Command(bin, "serve", "-model", model, "-addr", "127.0.0.1:0", "-log-level", "error")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // an error once the process has exited; harmless

	// "serving <model> (...) on http://127.0.0.1:<port>/predict"
	out := bufio.NewReader(stdout)
	line, err := out.ReadString('\n')
	i := strings.Index(line, "http://")
	if err != nil || !strings.HasPrefix(line, "serving ") || i < 0 {
		t.Fatalf("no serving line: %q (%v)\n%s", line, err, stderr.String())
	}
	predictURL := strings.TrimSpace(line[i:])
	base := strings.TrimSuffix(predictURL, "/predict")

	readyz := func(root string) int {
		resp, err := http.Get(root + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(base); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}

	// One row the model never trained on (another seed's population); the
	// first without a missing value, which JSON cannot carry.
	_, testX, _, err := harpgbdt.SynthesizeTrainTest(harpgbdt.SynthConfig{
		Spec: harpgbdt.HiggsLike, Rows: 200, Seed: 99}, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	var row []float32
	for i := 0; i < testX.N && row == nil; i++ {
		r := testX.Values[i*testX.M : (i+1)*testX.M]
		if !slices.ContainsFunc(r, func(v float32) bool { return v != v }) {
			row = r
		}
	}
	if row == nil {
		t.Fatal("no held-out row without a missing value")
	}
	post := func(rows [][]float32) (int, []byte) {
		body, err := json.Marshal(map[string][][]float32{"rows": rows})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(predictURL, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	code, data := post([][]float32{row})
	var got struct {
		Predictions []float64 `json:"predictions"`
	}
	if code != http.StatusOK || json.Unmarshal(data, &got) != nil || len(got.Predictions) != 1 {
		t.Fatalf("/predict = %d %s", code, data)
	}
	m, err := harpgbdt.LoadModel(model)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Predict(row); got.Predictions[0] != want {
		t.Fatalf("/predict answered %v, Model.Predict says %v", got.Predictions[0], want)
	}
	if code, data := post([][]float32{row[:len(row)-1]}); code != http.StatusBadRequest {
		t.Fatalf("short row = %d %s, want 400", code, data)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(out) // ends when the process closes its stdout
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve did not exit 0 on SIGTERM: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(string(rest), "shutting down") {
		t.Fatalf("no shutdown line before exit: %q", rest)
	}

	// That /readyz follows the service cannot be seen from outside the
	// process: a server without a probe answers 200 too, and cmdServe
	// closes the listener before the service. So arm cmdServe's own
	// composition in process and close the service under the live server.
	srv, svc, err := armServe(model, "127.0.0.1:0", harpgbdt.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc.Close()
	if code := readyz("http://" + srv.Addr()); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with the service closed, want 503", code)
	}
}

// TestCLICrashResume kills a checkpointing training run at round 6 with an
// injected panic, resumes it from the checkpoint, and verifies the resumed
// model predicts byte-identically to an uninterrupted run.
func TestCLICrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	common := []string{"train", "-synth", "higgs", "-rows", "2000", "-trees", "10",
		"-d", "5", "-mode", "sync", "-workers", "2", "-subsample", "0.8", "-eval-every", "0"}
	withArgs := func(extra ...string) []string {
		return append(append([]string{}, common...), extra...)
	}

	// Uninterrupted reference run.
	refModel := filepath.Join(dir, "ref.json")
	runCLI(t, bin, withArgs("-model", refModel)...)

	// Crashing run: an injected panic kills the process after 6 rounds. The
	// armed flight recorder must leave a checksummed post-mortem artifact.
	ckpt := filepath.Join(dir, "ckpt")
	crashModel := filepath.Join(dir, "resumed.json")
	flight := filepath.Join(dir, "flight.json")
	out, err := exec.Command(bin, withArgs("-model", crashModel, "-checkpoint-dir", ckpt,
		"-flight-out", flight, "-inject", "boost.round=panic,after=6")...).CombinedOutput()
	if err == nil {
		t.Fatalf("injected panic did not kill the trainer:\n%s", out)
	}
	if _, err := os.Stat(crashModel); err == nil {
		t.Fatal("crashed run still wrote a model")
	}
	if _, err := os.Stat(filepath.Join(ckpt, "checkpoint.json")); err != nil {
		t.Fatalf("no checkpoint survived the crash: %v", err)
	}
	assertFlightDump(t, flight)

	// Resume from the checkpoint and finish the remaining rounds.
	out2 := runCLI(t, bin, withArgs("-model", crashModel, "-checkpoint-dir", ckpt, "-resume")...)
	if !strings.Contains(out2, "resuming from checkpoint at round 6") {
		t.Fatalf("no resume message:\n%s", out2)
	}
	if !strings.Contains(out2, "model saved") {
		t.Fatalf("resumed run did not save a model:\n%s", out2)
	}

	// The resumed model must predict byte-identically to the reference.
	data := filepath.Join(dir, "test.libsvm")
	lib := "1 0:0.5 1:1.2 5:0.3\n0 0:-0.5 2:2.0\n1 3:1\n0 4:0.7 6:-1.1\n"
	if err := os.WriteFile(data, []byte(lib), 0o644); err != nil {
		t.Fatal(err)
	}
	refPreds := filepath.Join(dir, "ref-preds.txt")
	resPreds := filepath.Join(dir, "resumed-preds.txt")
	runCLI(t, bin, "predict", "-data", data, "-features", "28", "-model", refModel, "-out", refPreds)
	runCLI(t, bin, "predict", "-data", data, "-features", "28", "-model", crashModel, "-out", resPreds)
	b1, err := os.ReadFile(refPreds)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(resPreds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("resumed model diverged from uninterrupted run:\nref:     %q\nresumed: %q", b1, b2)
	}
}

// assertFlightDump verifies the crashed run's flight-recorder artifact:
// the checksum footer must validate, the dump must name the injected
// panic as its reason (the dump closest to the fault wins), and the
// retained events must carry the structured run/round keys the schema
// promises.
func assertFlightDump(t *testing.T, path string) {
	t.Helper()
	dump, err := harpgbdt.ReadFlightDump(path)
	if err != nil {
		t.Fatalf("flight dump unreadable: %v", err)
	}
	if dump.Reason != "injected panic" {
		t.Errorf("dump reason %q, want %q (the dump at the fault point must win)", dump.Reason, "injected panic")
	}
	if dump.TotalEvents == 0 || len(dump.Events) == 0 {
		t.Fatalf("empty flight dump: total %d, retained %d", dump.TotalEvents, len(dump.Events))
	}
	var sawRound, sawInjected bool
	for _, ev := range dump.Events {
		if ev.Msg == "round complete" {
			if _, ok := ev.Attrs["run"]; !ok {
				t.Errorf("round event missing run id: %+v", ev)
			}
			if _, ok := ev.Attrs["round"]; !ok {
				t.Errorf("round event missing round key: %+v", ev)
			}
			sawRound = true
		}
		if ev.Msg == "fault injected" {
			sawInjected = true
		}
	}
	if !sawRound {
		t.Error("no round-complete events retained in the flight dump")
	}
	if !sawInjected {
		t.Error("the injected fault's own log event is missing from the dump")
	}

	// Corrupting the artifact must make verification fail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	bad := path + ".corrupt"
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := harpgbdt.ReadFlightDump(bad); err == nil {
		t.Error("corrupted flight dump passed verification")
	}
}

// TestCLICacheRoundTrip saves a dataset to the binary cache via the stats
// path and trains from it with -format cache.
func TestCLICacheFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	// No datagen subcommand writes caches yet; exercise the loader with a
	// cache written through the library, as a user script would.
	ds, err := harpgbdt.Synthesize(harpgbdt.SynthConfig{
		Spec: harpgbdt.HiggsLike, Rows: 1500, Seed: 7}, 64)
	if err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(dir, "ds.bin")
	if err := harpgbdt.SaveCache(cache, ds); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "model.json")
	out := runCLI(t, bin, "train", "-data", cache, "-format", "cache", "-trees", "4",
		"-d", "4", "-mode", "sync", "-model", model, "-eval-every", "0")
	if !strings.Contains(out, "model saved") {
		t.Fatalf("cache-format train failed:\n%s", out)
	}
	// A corrupted cache must be rejected with a clear error, not a crash.
	raw, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(cache, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "train", "-data", cache, "-format", "cache", "-trees", "2", "-model", model)
	out3, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("corrupt cache accepted:\n%s", out3)
	}
	if !strings.Contains(string(out3), "corrupt") {
		t.Fatalf("corrupt cache error not surfaced:\n%s", out3)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	// Unknown subcommand exits non-zero.
	if err := exec.Command(bin, "bogus").Run(); err == nil {
		t.Fatal("unknown subcommand succeeded")
	}
	// Missing data exits non-zero.
	if err := exec.Command(bin, "eval", "-model", "nope.json").Run(); err == nil {
		t.Fatal("eval without data succeeded")
	}
	// No arguments prints usage and exits 2.
	if err := exec.Command(bin).Run(); err == nil {
		t.Fatal("no-arg invocation succeeded")
	}
}
