// Command harplint runs the domain-specific static analyzer over this
// module: spin-lock critical-section scope (spinscope), lock balance
// (lockbalance), training-path determinism (determinism), observability
// naming hygiene (obshygiene), kernel allocation freedom (hotalloc),
// goroutine join paths (goroutineleak) and persistence error observation
// (errflow).
//
// Usage:
//
//	harplint [flags] [./... | dir ...]
//
// With no arguments (or "./...") the whole module is analyzed. The -tags
// flag selects the analyzed build configuration (run once with no tags and
// once with -tags harpdebug to cover both sides of the invariant layer).
//
// Findings print in go vet format (file:line:col: message [rule]).
// Exit status is 1 when unsuppressed findings exist, 2 on load or
// type-check errors — a module that does not type-check cannot be
// analyzed reliably, so type errors are fatal, not warnings.
//
// -gates runs the compiler-contract gate instead of the AST rules: one
// `go build -gcflags='-m=1 -d=ssa/check_bce'` whose residual bounds
// checks, heap escapes, moved-to-heap variables and inliner verdicts are
// mapped onto the hot-kernel reach set and diffed, one record per
// function, against the committed COMPILER_baseline.txt (regenerate
// deliberately with -gates -update).
//
// -stats appends a per-rule finding table and per-analysis wall-time
// breakdown after a normal run, so lint cost stays visible as rules grow.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"harpgbdt/internal/lint"
)

func main() {
	var (
		root        = flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
		showIgnored = flag.Bool("show-ignored", false, "also print suppressed findings")
		listRules   = flag.Bool("rules", false, "list rule names and exit")
		tags        = flag.String("tags", "", "comma-separated build tags of the analyzed configuration")
		gates       = flag.Bool("gates", false, "run the compiler-contract gate against COMPILER_baseline.txt and exit")
		update      = flag.Bool("update", false, "with -gates: regenerate COMPILER_baseline.txt from the current build")
		stats       = flag.Bool("stats", false, "print per-rule finding counts and per-analysis wall time")
	)
	flag.Parse()

	if *root == "" {
		r, err := findModuleRoot()
		if err != nil {
			fatal(err)
		}
		*root = r
	}
	if *gates {
		runGates(*root, *update)
		return
	}
	loader, err := lint.NewLoaderTags(*root, splitTags(*tags)...)
	if err != nil {
		fatal(err)
	}
	analyses := lint.DefaultAnalyses(loader.Module)
	if *listRules {
		for _, r := range lint.RuleNames(analyses) {
			fmt.Println(r)
		}
		return
	}

	var dirs []string
	for _, arg := range flag.Args() {
		if arg == "./..." || arg == "..." {
			dirs = nil
			break
		}
		dirs = append(dirs, arg)
	}
	var pkgs []*lint.Package
	if dirs == nil {
		pkgs, err = loader.LoadModule()
	} else {
		pkgs, err = loader.LoadDirs(dirs)
	}
	if err != nil {
		fatal(err)
	}
	typeErrs := 0
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			// types.Error already renders as file:line:col: message.
			fmt.Fprintln(os.Stderr, relativize(terr.Error()))
			typeErrs++
		}
	}
	if typeErrs > 0 {
		fmt.Fprintf(os.Stderr, "harplint: %d type error(s); analysis would be unreliable\n", typeErrs)
		os.Exit(2)
	}

	findings, analysisStats := lint.RunWithStats(pkgs, analyses)
	bad := 0
	for _, f := range findings {
		if f.Suppressed {
			if *showIgnored {
				fmt.Println(vetLine(f))
			}
			continue
		}
		bad++
		fmt.Println(vetLine(f))
	}
	if *stats {
		printStats(findings, analysisStats, lint.RuleNames(analyses))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "harplint: %d finding(s) in %d package(s)\n", bad, len(pkgs))
		os.Exit(1)
	}
}

// runGates runs the compiler-contract gate: measure the reach set's
// contracts, then compare against (or with update=true, rewrite) the
// committed baseline. Exits 1 on drift, 2 on build/parse errors.
func runGates(root string, update bool) {
	got, err := lint.RunGates(lint.GateOptions{Root: root})
	if err != nil {
		fatal(err)
	}
	basePath := filepath.Join(root, "COMPILER_baseline.txt")
	if update {
		if err := os.WriteFile(basePath, lint.FormatContracts(got), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("harplint: wrote %s (%d functions)\n", relativize(basePath), len(got))
		return
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		fatal(fmt.Errorf("%v (generate it with `harplint -gates -update`)", err))
	}
	base, err := lint.ParseContracts(data)
	if err != nil {
		fatal(err)
	}
	diffs := lint.DiffContracts(got, base)
	for _, d := range diffs {
		fmt.Println("gates:", d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "harplint: compiler-contract gate failed: %d discrepancy(ies) vs %s\n", len(diffs), relativize(basePath))
		os.Exit(1)
	}
	var checks, heap, inlinable, calls int
	for _, c := range got {
		checks += c.BCEIndex + c.BCESlice
		heap += c.Escapes + c.Moved
		if c.CanInline {
			inlinable++
		}
		calls += c.InlinedCalls
	}
	fmt.Printf("harplint: compiler-contract gate ok (%d functions: %d residual bounds checks, %d heap diagnostics, %d/%d inlinable, %d inlined call sites match baseline)\n",
		len(got), checks, heap, inlinable, len(got), calls)
}

// printStats renders the -stats table: per-rule finding counts
// (suppressed counted separately) and per-analysis wall time.
func printStats(findings []lint.Finding, stats []lint.AnalysisStat, rules []string) {
	byRule := make(map[string]*[2]int, len(rules))
	for _, r := range rules {
		byRule[r] = &[2]int{}
	}
	for _, f := range findings {
		c, ok := byRule[f.Rule]
		if !ok {
			c = &[2]int{}
			byRule[f.Rule] = c
		}
		if f.Suppressed {
			c[1]++
		} else {
			c[0]++
		}
	}
	fmt.Printf("%-16s %9s %10s\n", "rule", "findings", "suppressed")
	for _, r := range rules {
		c := byRule[r]
		fmt.Printf("%-16s %9d %10d\n", r, c[0], c[1])
	}
	var total time.Duration
	for _, s := range stats {
		total += s.Elapsed
		fmt.Printf("analysis %-30s %12s\n", strings.Join(s.Rules, ","), s.Elapsed.Round(time.Microsecond))
	}
	fmt.Printf("analysis %-30s %12s\n", "total", total.Round(time.Microsecond))
}

// vetLine renders a finding the way go vet does: file:line:col: message,
// with the rule name appended in brackets.
func vetLine(f lint.Finding) string {
	s := fmt.Sprintf("%s:%d:%d: %s [%s]", relativize(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Msg, f.Rule)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.Reason)
	}
	return s
}

// relativize rewrites an absolute path (or a diagnostic starting with one)
// relative to the working directory when that is shorter.
func relativize(s string) string {
	wd, err := os.Getwd()
	if err != nil {
		return s
	}
	sep := string(filepath.Separator)
	if strings.HasPrefix(s, wd+sep) {
		return strings.TrimPrefix(s, wd+sep)
	}
	return s
}

func splitTags(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the first go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("harplint: no go.mod found above %s", mustGetwd())
		}
		dir = parent
	}
}

func mustGetwd() string {
	d, _ := os.Getwd()
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harplint:", strings.TrimPrefix(err.Error(), "lint: "))
	os.Exit(2)
}
