// Command experiments regenerates the paper's tables and figures as
// plain-text tables. Each experiment is named after the paper artifact it
// reproduces (fig4, table1, ... fig16); `all` runs every one of them.
// Beyond the paper artifacts it hosts the studies that run on the virtual
// machine or the simulated cluster — bench, comms, efficiency — and
// benchdiff, the structural gate over bench's deterministic counts. It
// judges no timing: that is the repo benchmark's job (`go run ./benchmark`,
// `go run ./benchmark compare`; see benchmark/README.md).
//
// Usage:
//
//	experiments [-rows N] [-rounds N] [-convrounds N] [-workers N] [-seed S] [exp ...]
//
// Examples:
//
//	experiments table3 fig12
//	experiments -rows 100000 -rounds 10 all
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"harpgbdt/internal/experiments"
	"harpgbdt/internal/obs"
)

func main() {
	var (
		rows       = flag.Int("rows", 0, "training rows per dataset (0 = default 20000)")
		rounds     = flag.Int("rounds", 0, "trees per timing measurement (0 = default 3)")
		convRounds = flag.Int("convrounds", 0, "trees per convergence run (0 = default 40)")
		workers    = flag.Int("workers", 0, "worker threads (0 = 32 simulated, or GOMAXPROCS with -realthreads)")
		seed       = flag.Uint64("seed", 0, "dataset seed (0 = default)")
		real       = flag.Bool("realthreads", false, "run on real goroutines instead of the simulated parallel machine")
		list       = flag.Bool("list", false, "list available experiments and exit")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the runs to this file")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /progress and /debug/pprof on this address while experiments run")
		benchOut   = flag.String("bench-out", "", "write the bench experiment's JSON report to this file (default: print the table only)")
		perfOn     = flag.Bool("perf", false, "attach the per-worker wait-state profiler to the bench run (adds a perf section to the JSON report)")
		distNodes  = flag.Int("dist-nodes", 0, "run the bench experiment on the simulated cluster with this many nodes (adds a comms section to the JSON report)")
		commsOut   = flag.String("comms-out", "comms.json", "output path of the comms experiment's JSON report")
		effOut     = flag.String("eff-out", "efficiency.json", "output path of the efficiency experiment's JSON report")
		baseline   = flag.String("baseline", "BENCH_baseline.json", "benchdiff: committed baseline report to compare against")
	)
	flag.Parse()
	sc := experiments.Scale{
		Rows: *rows, Rounds: *rounds, ConvRounds: *convRounds,
		Workers: *workers, Seed: *seed, RealThreads: *real, Perf: *perfOn,
		DistNodes: *distNodes,
	}
	// The one table of runnable names: -list, the usage text and the
	// dispatch below all read it. The paper artifacts come first, from the
	// experiments registry; the hosted studies and the gate follow.
	var cmds []subcommand
	for _, name := range experiments.Names() {
		cmds = append(cmds, subcommand{name, func() error { return runExperiment(name, sc) }})
	}
	cmds = append(cmds,
		subcommand{"bench", func() error { return runBench(sc, *benchOut) }},
		subcommand{"benchdiff", func() error { return runBenchDiff(*baseline) }},
		subcommand{"comms", func() error { return runComms(sc, *commsOut) }},
		subcommand{"efficiency", func() error { return runEfficiency(sc, *effOut) }},
	)
	if *list {
		for _, c := range cmds {
			fmt.Println(c.name)
		}
		return
	}
	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <name ...|all>")
		fmt.Fprintln(os.Stderr, "names:", cmdNames(cmds))
		os.Exit(2)
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	obsv := obs.New()
	if *traceOut != "" {
		obsv.EnableTracing(0)
	}
	obs.SetDefault(obsv)
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, obsv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s (metrics, progress, debug/pprof)\n", srv.Addr())
	}
	for _, name := range names {
		start := time.Now()
		i := slices.IndexFunc(cmds, func(c subcommand) bool { return c.name == name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v)\n", name, cmdNames(cmds))
			os.Exit(1)
		}
		if err := cmds[i].run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *traceOut != "" {
		if err := obsv.Tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events)\n", *traceOut, obsv.Tracer.Len())
	}
}

// subcommand is one name the command line accepts and what it runs.
type subcommand struct {
	name string
	run  func() error
}

func cmdNames(cmds []subcommand) []string {
	names := make([]string, len(cmds))
	for i, c := range cmds {
		names[i] = c.name
	}
	return names
}

// runExperiment runs one paper artifact and prints its tables.
func runExperiment(name string, sc experiments.Scale) error {
	tables, err := experiments.Run(name, sc)
	for _, tb := range tables {
		fmt.Println(tb.String())
	}
	return err
}

// runEfficiency runs the parallel-efficiency sweep, prints the per-worker
// tables and writes the machine-readable report.
func runEfficiency(sc experiments.Scale, out string) error {
	rep, tables, err := experiments.Efficiency(sc)
	if err != nil {
		return err
	}
	for _, tb := range tables {
		fmt.Println(tb.String())
	}
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("efficiency report written to %s\n", out)
	return nil
}

// runBenchDiff is the structural regression gate: re-run the bench at the
// committed baseline's scale and fail on drift of the counts the virtual
// machine determines (see EXPERIMENTS.md, "How a change is judged").
func runBenchDiff(baselinePath string) error {
	base, err := experiments.LoadBenchReport(baselinePath)
	if err != nil {
		return fmt.Errorf("load baseline: %w", err)
	}
	cur, bad, err := experiments.BenchGate(base, experiments.DefaultBenchTolerance())
	if err != nil {
		return err
	}
	fmt.Printf("benchdiff: baseline %s (%s): %d leaves, %.1f regions/tree, %.1f tasks/tree, train AUC %.4f\n",
		baselinePath, base.Date, cur.Leaves, cur.RegionsPerTree, cur.TasksPerTree, cur.TrainAUC)
	if len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "benchdiff FAIL:", m)
		}
		return fmt.Errorf("%d structural regression(s) against %s", len(bad), baselinePath)
	}
	fmt.Println("benchdiff: no regressions")
	return nil
}

// runComms runs the distributed communication study: the bench on the
// simulated cluster, the per-node ledger table, and the machine-readable
// report (whose comms section the benchdiff gate can later pin).
func runComms(sc experiments.Scale, out string) error {
	rep, ledger, tb, err := experiments.Comms(sc)
	if err != nil {
		return err
	}
	rep.Date = time.Now().Format("2006-01-02")
	fmt.Println(tb.String())
	if err := ledger.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("comms report written to %s\n", out)
	return nil
}

// runBench runs the bench experiment and prints its summary; with
// -bench-out it also writes the machine-readable report (the file `make
// baseline` commits as BENCH_baseline.json).
func runBench(sc experiments.Scale, out string) error {
	rep, tb, err := experiments.Bench(sc)
	if err != nil {
		return err
	}
	fmt.Println(tb.String())
	if out == "" {
		return nil
	}
	rep.Date = time.Now().Format("2006-01-02")
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("bench report written to %s\n", out)
	return nil
}
