// Package lint implements harplint, a domain-specific static analyzer for
// this codebase. It loads the module with the standard library's go/parser
// and go/types (no external analysis framework) and checks four invariants
// that general-purpose linters cannot express:
//
//   - spinscope: code executed while a sched.SpinMutex is held must be a
//     handful of straight-line instructions — no function calls, heap
//     allocations, channel operations, goroutine spawns or returns.
//   - lockbalance: every Lock acquired in a function is released on every
//     exit path (directly or by defer), and lock state is consistent
//     across branches and loop iterations.
//   - determinism: packages on the deterministic training path must not
//     read wall clocks, use the global math/rand source, or iterate maps
//     without an ordering step.
//   - obshygiene: metric and trace span names must be compile-time
//     constants so the observability surface is statically enumerable.
//
// and three interprocedural rules over a module-wide call graph
// (callgraph.go); errflow also walks per-function CFGs with def-use chains
// (cfg.go, dataflow.go):
//
//   - hotalloc: functions reachable from the BuildHist / FindSplit kernel
//     roots must not allocate (composite literals, append growth, make,
//     closure captures, implicit interface conversions).
//   - goroutineleak: every go statement has a provable join path —
//     WaitGroup Done, channel close/send/receive, or a context bridge,
//     interprocedurally through module callees.
//   - errflow: errors originating in the safeio persistence layer (and
//     everything that forwards them: checkpoints, flight dumps, dist
//     restore) are never discarded or shadowed, and are wrapped with %w.
//
// Data races, atomic/plain access mixing and histogram use after Put are
// left to the race detector and the harpdebug invariant layer, which run
// the same code under `make race-sanitize`.
//
// One compiler-contract gate (compiler.go) diffs real compiler
// diagnostics against a committed baseline; it is a build-level pass
// driven by `harplint -gates` and `make gates` rather than an Analysis.
// One `go build -gcflags='-m=1 -d=ssa/check_bce'` yields, per function in
// the hot-kernel reach set, the residual bounds checks, heap escapes and
// moved-to-heap variables, and the inliner's verdict, pinned in
// COMPILER_baseline.txt.
//
// Findings can be suppressed with an inline directive on the offending
// line or the line above:
//
//	//harplint:ignore rule1,rule2 -- reason
//
// The reason is mandatory; a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"time"
)

// Finding is one diagnostic produced by a rule.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	// Suppressed is set when an ignore directive covers this finding;
	// Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.Reason)
	}
	return s
}

// Analysis is one checker pass. A pass may emit findings under several
// rule names (spinscope and lockbalance share a lock-tracking walk).
type Analysis interface {
	// Rules lists the rule names this analysis can emit.
	Rules() []string
	// Check inspects one package and reports findings.
	Check(p *Package, report func(rule string, pos token.Pos, msg string))
}

// ModuleAnalysis is an Analysis that needs a module-wide view before the
// per-package Check calls: the interprocedural passes (hotalloc,
// goroutineleak, errflow) build a call graph and function summaries over
// the whole package set here.
type ModuleAnalysis interface {
	Analysis
	// Prepare runs once per Run with every loaded package, before any
	// Check call.
	Prepare(pkgs []*Package)
}

// DeterministicPackages are the module-internal package suffixes that the
// determinism rule guards: the training path whose outputs must be
// bit-identical across runs and resumes.
var DeterministicPackages = []string{
	"internal/core",
	"internal/gh",
	"internal/grow",
	"internal/histogram",
	"internal/tree",
	"internal/boost",
	// The virtual-clock layers: simulated-cluster timing and the seeded
	// fault registry must never read the wall clock or the global rand
	// source, or an injected failure stops replaying the same way.
	"internal/dist",
	"internal/fault",
}

// ServingPackages are the module-internal package suffixes under the
// serving telemetry namespace discipline: metrics registered there must
// carry the serve_ prefix and trace events the "serve" category (see
// obshygiene).
var ServingPackages = []string{
	"internal/serve",
}

// DefaultAnalyses returns the standard harplint rule set for the module
// with the given module path.
func DefaultAnalyses(module string) []Analysis {
	det := make(map[string]bool, len(DeterministicPackages))
	for _, p := range DeterministicPackages {
		det[module+"/"+p] = true
	}
	srv := make([]string, 0, len(ServingPackages))
	for _, p := range ServingPackages {
		srv = append(srv, module+"/"+p)
	}
	return []Analysis{
		&lockAnalysis{},
		&determinismAnalysis{packages: det},
		NewObsHygieneAnalysis(srv...),
		NewHotAllocAnalysis(DefaultHotRoots()...),
		&goroutineLeakAnalysis{},
		&errFlowAnalysis{},
	}
}

// NewObsHygieneAnalysis returns the obshygiene rule with the given full
// import paths under the serving namespace discipline. DefaultAnalyses
// derives the production set from the module path; tests point this at
// fixture packages.
func NewObsHygieneAnalysis(servePaths ...string) Analysis {
	set := make(map[string]bool, len(servePaths))
	for _, p := range servePaths {
		set[p] = true
	}
	return &obsHygieneAnalysis{servePkgs: set}
}

// NewDeterminismAnalysis returns the determinism rule guarding exactly
// the given full import paths. DefaultAnalyses derives the production
// set from the module path; tests point this at fixture packages.
func NewDeterminismAnalysis(paths ...string) Analysis {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return &determinismAnalysis{packages: set}
}

// RuleNames returns the sorted names of every rule the analyses can emit,
// plus the synthetic "directive" rule for malformed ignore comments.
func RuleNames(analyses []Analysis) []string {
	set := map[string]bool{directiveRule: true}
	for _, a := range analyses {
		for _, r := range a.Rules() {
			set[r] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// AnalysisStat is the measured cost of one analysis across a Run: the
// rules it emits and the wall time its Prepare plus every Check took.
type AnalysisStat struct {
	Rules   []string
	Elapsed time.Duration
}

// Run executes the analyses over the packages, applies ignore directives,
// and returns all findings (suppressed ones included, marked) sorted by
// position. Unused and malformed directives are reported under the
// "directive" rule.
func Run(pkgs []*Package, analyses []Analysis) []Finding {
	findings, _ := RunWithStats(pkgs, analyses)
	return findings
}

// RunWithStats is Run plus per-analysis timing, so lint cost stays
// visible as the rule set grows (cmd/harplint -stats).
func RunWithStats(pkgs []*Package, analyses []Analysis) ([]Finding, []AnalysisStat) {
	known := map[string]bool{}
	for _, a := range analyses {
		for _, r := range a.Rules() {
			known[r] = true
		}
	}
	stats := make([]AnalysisStat, len(analyses))
	for i, a := range analyses {
		stats[i].Rules = a.Rules()
		if ma, ok := a.(ModuleAnalysis); ok {
			start := time.Now()
			ma.Prepare(pkgs)
			stats[i].Elapsed += time.Since(start)
		}
	}
	var findings []Finding
	for _, p := range pkgs {
		dirs := collectDirectives(p, known)
		report := func(rule string, pos token.Pos, msg string) {
			position := p.Fset.Position(pos)
			f := Finding{Pos: position, Rule: rule, Msg: msg}
			if d := dirs.covering(position, rule); d != nil {
				d.used = true
				f.Suppressed = true
				f.Reason = d.reason
			}
			findings = append(findings, f)
		}
		for i, a := range analyses {
			start := time.Now()
			a.Check(p, report)
			stats[i].Elapsed += time.Since(start)
		}
		findings = append(findings, dirs.problems()...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return findings, stats
}

// Unsuppressed filters findings down to the ones that fail the build.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
