// Command benchmark is the repository's performance benchmark: four
// workloads, each the whole user journey (bin, train, compile, score a
// batch, serve /predict) on real threads and the wall clock, plus a
// traced run that times the calls into each module. See README.md.
//
//	go run ./benchmark                          every workload, one set
//	go run ./benchmark -workload train-fat      one workload
//	go run ./benchmark -sets 3 -out a.json      three sets, saved for compare
//	go run ./benchmark -workload train-fat -trace 1
//	go run ./benchmark compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// maxWorkers caps W: the paper's effects are per-core, and a fixed cap
// keeps the numbers of a many-core box comparable to the sandbox's.
const maxWorkers = 4

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all (each in its own process)")
	seedFlag := fs.Int64("seed", 2019, "seed of the inputs: train/test split, row order, request payloads, arrivals")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time the sampling phases share; training is fixed work")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and benchmark/out/trace-<workload>.json")
	sets := fs.Int("sets", 1, "with -workload all: complete sets to run")
	out := fs.String("out", "", "write the full results (environment, samples, verdicts) to this JSON file")
	outDir := fs.String("out-dir", filepath.Join("benchmark", "out"), "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds > 0, -sets >= 1, -trace 0 or 1")
	}
	seed := uint64(*seedFlag)
	w := runtime.NumCPU()
	if w > maxWorkers {
		w = maxWorkers
	}
	if w < 2 {
		return errors.New("refusing to run with W < 2: ASYNC and SYNC degenerate to serial and the parallel metrics mean nothing")
	}
	runtime.GOMAXPROCS(w)

	file := resultFile{Env: readEnv(w, seed)}
	if *name == "all" {
		for s := 0; s < *sets; s++ {
			for _, wl := range workloads {
				r, err := runChild(wl.Name, seed, *seconds, *trace, *outDir)
				if err != nil {
					return err
				}
				file.Runs = append(file.Runs, r)
			}
		}
	} else {
		wl, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		r, err := runWorkload(wl, seed, *seconds, w, *trace == 1, *outDir)
		if err != nil {
			return err
		}
		printResult(r)
		file.Runs = append(file.Runs, r)
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			return err
		}
	}
	failed := false
	for _, r := range file.Runs {
		failed = failed || !r.correct()
	}
	if *name != "all" {
		// The last line of a single-workload run is its machine-readable
		// summary.
		fmt.Println(summaryLine(file.Runs[0]))
	}
	if failed {
		return errors.New("a correctness verdict failed")
	}
	return nil
}

// runChild runs one workload in its own process, so that peak_rss_mb
// and the heap a workload leaves behind belong to that workload alone.
func runChild(name string, seed uint64, seconds float64, trace int, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("out dir: %w", err)
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("result-%s-%d.json", name, os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(int64(seed)), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out-dir", outDir, "-out", tmp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	f, err := readResultFile(tmp)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", name, runErr)
		}
		return nil, err
	}
	return f.Runs[0], nil
}

func printResult(r *result) {
	for _, m := range r.Metrics {
		fmt.Printf("%s %s %.6g %s %d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	for _, o := range r.Ops {
		fmt.Printf("%s ops %s attempted %d failed %d\n", r.Workload, o.Name, o.Attempted, o.Failed)
	}
	for _, v := range r.Verdicts {
		state := "ok"
		if !v.OK {
			state = "FAIL"
		}
		fmt.Printf("%s verdict %s %s: %s\n", r.Workload, v.Name, state, v.Detail)
	}
	if r.Trace != "" {
		fmt.Printf("%s trace %s\n", r.Workload, r.Trace)
	}
}

// summaryLine is the one-object JSON summary a harness reads.
func summaryLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := r.totals()
	s := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), attempted, failed, map[string]mv{}}
	for _, m := range r.Metrics {
		s.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(s)
	if err != nil {
		// Only a NaN or Inf metric can fail here; report it as incorrect.
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`
	}
	return string(data)
}

// environment is recorded with every result file: numbers from
// different machines or widths must not be compared.
type environment struct {
	NumCPU     int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"cpu_caches"`
	Commit     string   `json:"commit"`
	Seed       uint64   `json:"seed"`
}

func readEnv(w int, seed uint64) environment {
	e := environment{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: w,
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown", Seed: seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // only fails on a malformed pattern
	for _, d := range dirs {
		read := func(f string) string {
			data, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(data))
		}
		e.Caches = append(e.Caches, fmt.Sprintf("L%s %s %s", read("level"), read("type"), read("size")))
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(rev))
	}
	return e
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &f, nil
}
