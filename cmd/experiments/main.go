// Command experiments regenerates the paper's tables and figures as
// plain-text tables. Each experiment is named after the paper artifact it
// reproduces (fig4, table1, ... fig16); `all` runs every one of them.
// Beyond the paper artifacts it hosts two studies that write JSON reports:
// comms (the simulated cluster's message/byte ledger) and efficiency (the
// per-worker wait-state sweep). It judges no timing: that is the repo
// benchmark's job (`go run ./benchmark`, `go run ./benchmark compare`; see
// benchmark/README.md).
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
		commsOut   = flag.String("comms-out", "comms.json", "output path of the comms experiment's JSON report")
		effOut     = flag.String("eff-out", "efficiency.json", "output path of the efficiency experiment's JSON report")
	)
	flag.Parse()
	sc := experiments.Scale{
		Rows: *rows, Rounds: *rounds, ConvRounds: *convRounds,
		Workers: *workers, Seed: *seed, RealThreads: *real,
	}
	// The one table of runnable names: -list, the usage text and the
	// dispatch below all read it. The paper artifacts come first, from the
	// experiments registry; the hosted studies follow.
	var cmds []subcommand
	for _, name := range experiments.Names() {
		cmds = append(cmds, subcommand{name, func() error { return runExperiment(name, sc) }})
	}
	cmds = append(cmds,
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
	if err := experiments.WriteJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("efficiency report written to %s\n", out)
	return nil
}

// runComms runs the distributed communication study: the cluster-totals
// and per-node ledger tables, and the ledger as JSON.
func runComms(sc experiments.Scale, out string) error {
	ledger, tb, err := experiments.Comms(sc)
	if err != nil {
		return err
	}
	fmt.Println(tb.String())
	if err := ledger.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := experiments.WriteJSON(out, ledger); err != nil {
		return err
	}
	fmt.Printf("comms report written to %s\n", out)
	return nil
}
