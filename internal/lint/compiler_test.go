package lint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"harpgbdt/internal/lint"
)

// parseCase is one ParseCompilerOutput table row.
type parseCase struct {
	name string
	out  string
	want []lint.CompilerDiag
}

func diag(file string, line, col int, kind, detail string) lint.CompilerDiag {
	return lint.CompilerDiag{File: file, Line: line, Col: col, Kind: kind, Detail: detail}
}

func runParseCases(t *testing.T, cases []parseCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := lint.ParseCompilerOutput([]byte(tc.out))
			if err != nil {
				t.Fatalf("ParseCompilerOutput: %v", err)
			}
			if len(got) != len(tc.want) || (len(got) > 0 && !reflect.DeepEqual(got, tc.want)) {
				t.Errorf("got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// requireDrift is the loud-failure requirement: a line outside the known
// families must be an error, never a silent skip — otherwise a toolchain
// format change would make the gate pass vacuously.
func requireDrift(t *testing.T, lines []string) {
	t.Helper()
	for _, line := range lines {
		if _, err := lint.ParseCompilerOutput([]byte(line + "\n")); err == nil {
			t.Errorf("ParseCompilerOutput accepted %q; drift must fail loudly", line)
		} else if !strings.Contains(err.Error(), "drift") {
			t.Errorf("ParseCompilerOutput(%q) error should name format drift, got: %v", line, err)
		}
	}
}

// TestParseCompilerOutput feeds the parser an excerpt of the combined
// `-m=1 -d=ssa/check_bce` build: both families interleaved under package
// headers, with a bounds check the compiler repeats at one position.
func TestParseCompilerOutput(t *testing.T) {
	runParseCases(t, []parseCase{{
		name: "mixed excerpt",
		out: "# harpgbdt/internal/histogram\n" +
			"internal/histogram/histogram.go:137:6: can inline (*Hist).AddRange\n" +
			"internal/histogram/kernels.go:82:27: inlining call to (*Hist).AccumulatePanelRowsGrad\n" +
			"internal/histogram/kernels.go:82:27: index bounds check elided\n" +
			"internal/histogram/kernels.go:82:27: Found IsSliceInBounds\n" +
			"internal/histogram/kernels.go:82:27: Found IsSliceInBounds\n" +
			"internal/histogram/kernels.go:82:27: Found IsSliceInBounds\n" +
			"internal/histogram/kernels.go:82:27: Found IsInBounds\n" +
			"<autogenerated>:1: Found IsInBounds\n" +
			"<autogenerated>:1: Found IsSliceInBounds\n" +
			"<autogenerated>:1: inlining call to (*Pair).Add\n" +
			"\n" +
			"# harpgbdt/internal/core\n" +
			"internal/core/builder.go:85:10: &buf[0] escapes to heap\n" +
			"internal/core/builder.go:90:2: moved to heap: acc\n",
		want: []lint.CompilerDiag{
			diag("internal/histogram/histogram.go", 137, 6, lint.KindCanInline, "(*Hist).AddRange"),
			diag("internal/histogram/kernels.go", 82, 27, lint.KindInlineCall, "(*Hist).AccumulatePanelRowsGrad"),
			diag("internal/histogram/kernels.go", 82, 27, lint.KindBCESlice, ""),
			diag("internal/histogram/kernels.go", 82, 27, lint.KindBCEIndex, ""),
			diag("internal/core/builder.go", 85, 10, lint.KindEscapes, "&buf[0]"),
			diag("internal/core/builder.go", 90, 2, lint.KindMoved, "acc"),
		},
	}})
}

// TestParseBCEOutput pins the bounds-check families: both Found kinds
// kept, a repetition at one position counted once, synthesized-wrapper
// lines recognized and dropped.
func TestParseBCEOutput(t *testing.T) {
	runParseCases(t, []parseCase{
		{
			name: "both kinds",
			out: "# harpgbdt/internal/histogram\n" +
				"internal/histogram/histogram.go:105:14: Found IsSliceInBounds\n" +
				"\n" +
				"internal/core/kernels.go:85:20: Found IsInBounds\n" +
				"<autogenerated>:1: Found IsInBounds\n",
			want: []lint.CompilerDiag{
				diag("internal/histogram/histogram.go", 105, 14, lint.KindBCESlice, ""),
				diag("internal/core/kernels.go", 85, 20, lint.KindBCEIndex, ""),
			},
		},
		{
			// With -m on, the compiler repeats some checks at one
			// file:line:col; counting raw lines would inflate the count.
			name: "repeated check counted once",
			out: "internal/histogram/histogram.go:137:18: Found IsSliceInBounds\n" +
				"internal/histogram/histogram.go:137:18: Found IsSliceInBounds\n" +
				"internal/histogram/histogram.go:137:18: Found IsInBounds\n" +
				"internal/histogram/histogram.go:137:18: Found IsInBounds\n",
			want: []lint.CompilerDiag{
				diag("internal/histogram/histogram.go", 137, 18, lint.KindBCESlice, ""),
				diag("internal/histogram/histogram.go", 137, 18, lint.KindBCEIndex, ""),
			},
		},
	})
}

// TestParseBCEOutputDrift: malformed or unknown bounds-check lines fail.
func TestParseBCEOutputDrift(t *testing.T) {
	requireDrift(t, []string{
		"internal/histogram/histogram.go:105:14: Found IsFancyNewCheck",
		"internal/histogram/histogram.go:105: Found IsInBounds",
		"histogram.go:abc:14: Found IsInBounds",
		"histogram.go:105:0: Found IsInBounds",
		":105:14: Found IsInBounds",
		"go: downloading example.com/dep v1.0.0",
		"note: module requires Go 1.24",
		"<autogenerated>:x: Found IsInBounds",
		"<autogenerated>:1: Found SomethingElse",
	})
}

// TestParseMOutput pins the -m=1 families the gate keeps and the
// recognized families it drops.
func TestParseMOutput(t *testing.T) {
	runParseCases(t, []parseCase{
		{
			name: "kept families",
			out: "# harpgbdt/internal/histogram\n" +
				"internal/histogram/hist.go:40:6: can inline (*Hist).AddHist\n" +
				"internal/histogram/hist.go:61:12: inlining call to (*Hist).AddRange\n" +
				"internal/core/builder.go:85:10: &buf[0] escapes to heap\n" +
				"internal/core/builder.go:90:2: moved to heap: acc\n",
			want: []lint.CompilerDiag{
				diag("internal/histogram/hist.go", 40, 6, lint.KindCanInline, "(*Hist).AddHist"),
				diag("internal/histogram/hist.go", 61, 12, lint.KindInlineCall, "(*Hist).AddRange"),
				diag("internal/core/builder.go", 85, 10, lint.KindEscapes, "&buf[0]"),
				diag("internal/core/builder.go", 90, 2, lint.KindMoved, "acc"),
			},
		},
		{
			// Each call a nested inline folds in reports at the outer call
			// site: three real inlinings, not a repetition to collapse.
			name: "repeated inlining call counts",
			out: "internal/histogram/histogram.go:243:24: inlining call to tree.SplitParams.CalcTerm\n" +
				"internal/histogram/histogram.go:243:24: inlining call to tree.SplitParams.CalcTerm\n" +
				"internal/histogram/histogram.go:243:24: inlining call to tree.SplitParams.CalcTerm\n",
			want: []lint.CompilerDiag{
				diag("internal/histogram/histogram.go", 243, 24, lint.KindInlineCall, "tree.SplitParams.CalcTerm"),
				diag("internal/histogram/histogram.go", 243, 24, lint.KindInlineCall, "tree.SplitParams.CalcTerm"),
				diag("internal/histogram/histogram.go", 243, 24, lint.KindInlineCall, "tree.SplitParams.CalcTerm"),
			},
		},
		{
			name: "recognized families dropped",
			out: "internal/core/builder.go:84:21: b does not escape\n" +
				"internal/core/builder.go:84:21: leaking param: rows\n" +
				"internal/data/rng.go:31:10: (*RNG).Perm ignoring self-assignment in p[i], p[j] = p[j], p[i]\n" +
				"internal/core/builder.go:120:9: devirtualizing s.Len to *Block\n" +
				"internal/obs/log.go:44:17: zero-copy string->[]byte conversion\n" +
				"internal/histogram/kernels.go:32:12: index bounds check elided\n" +
				"<autogenerated>:1: &reflect.ValueError{...} escapes to heap\n" +
				"<autogenerated>:1: ... argument does not escape\n",
		},
	})
}

// TestParseMOutputDrift: any -m line outside the known families fails —
// a toolchain format change has to break the gate, not empty it.
func TestParseMOutputDrift(t *testing.T) {
	requireDrift(t, []string{
		"internal/core/builder.go:85:10: escapes into the void",
		"internal/core/builder.go:85: moved to heap: acc",
		"builder.go:abc:10: moved to heap: acc",
		"builder.go:85:0: moved to heap: acc",
		":85:10: moved to heap: acc",
		"<autogenerated>:x: can inline f",
		"<autogenerated>:1: some brand-new diagnostic",
		"internal/histogram/kernels.go:32:12: slice bounds check elided",
	})
}

// TestParseContracts round-trips the committed-file format and rejects
// records with missing or reordered columns.
func TestParseContracts(t *testing.T) {
	in := []lint.Contract{
		{Func: "core.Builder.accumulate", BCEIndex: 2, BCESlice: 3, InlinedCalls: 2},
		{Func: "histogram.Hist.AddHist", BCESlice: 1, Escapes: 1, Moved: 2, CanInline: true, InlinedCalls: 1},
	}
	got, err := lint.ParseContracts(lint.FormatContracts(in))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round-trip = %+v, want %+v", got, in)
	}
	const ok = "f bce-index 0 bce-slice 2 escapes 0 moved 0 can-inline yes inlined-calls 1"
	if _, err := lint.ParseContracts([]byte(ok + "\n")); err != nil {
		t.Fatalf("well-formed record rejected: %v", err)
	}
	rejectContracts(t, []string{
		"f",
		"f bce-index 0 bce-slice 2 escapes 0 moved 0 can-inline yes",
		"f bce-slice 2 bce-index 0 escapes 0 moved 0 can-inline yes inlined-calls 1",
	})
}

func rejectContracts(t *testing.T, bad []string) {
	t.Helper()
	for _, line := range bad {
		if _, err := lint.ParseContracts([]byte(line + "\n")); err == nil {
			t.Errorf("ParseContracts accepted %q", line)
		}
	}
}

// TestParseBCEBaseline: malformed bounds-check columns are rejected.
func TestParseBCEBaseline(t *testing.T) {
	rejectContracts(t, []string{
		"f bce-index x bce-slice 2 escapes 0 moved 0 can-inline yes inlined-calls 1",
		"f bce-index 0 bce-slice -2 escapes 0 moved 0 can-inline yes inlined-calls 1",
		"f bce-idx 0 bce-slice 2 escapes 0 moved 0 can-inline yes inlined-calls 1",
	})
}

// TestParseEscapeBaseline: malformed escape and moved columns are rejected.
func TestParseEscapeBaseline(t *testing.T) {
	rejectContracts(t, []string{
		"f bce-index 0 bce-slice 2 escapes -1 moved 0 can-inline yes inlined-calls 1",
		"f bce-index 0 bce-slice 2 escapes one moved 0 can-inline yes inlined-calls 1",
		"f bce-index 0 bce-slice 2 leaks 0 moved 0 can-inline yes inlined-calls 1",
		"f bce-index 0 bce-slice 2 escapes 0 shifted 0 can-inline yes inlined-calls 1",
		"f bce-index 0 bce-slice 2 escapes 0 moved x can-inline yes inlined-calls 1",
	})
}

// TestParseInlineBaseline: malformed inliner columns are rejected.
func TestParseInlineBaseline(t *testing.T) {
	rejectContracts(t, []string{
		"f bce-index 0 bce-slice 2 escapes 0 moved 0 can-inline maybe inlined-calls 1",
		"f bce-index 0 bce-slice 2 escapes 0 moved 0 inlinable yes inlined-calls 1",
		"f bce-index 0 bce-slice 2 escapes 0 moved 0 can-inline yes inlined 1",
		"f bce-index 0 bce-slice 2 escapes 0 moved 0 can-inline yes inlined-calls -1",
		"f bce-index 0 bce-slice 2 escapes 0 moved 0 can-inline yes inlined-calls x",
	})
}

// diffOne diffs a single mutated record against base and returns the
// lines, failing unless there is exactly want of them.
func diffOne(t *testing.T, base lint.Contract, mutate func(*lint.Contract), want int) []string {
	t.Helper()
	got := base
	mutate(&got)
	d := lint.DiffContracts([]lint.Contract{got}, []lint.Contract{base})
	if len(d) != want {
		t.Fatalf("want %d diff line(s), got %q", want, d)
	}
	return d
}

var diffBase = lint.Contract{Func: "a.f", BCEIndex: 2, BCESlice: 1, Escapes: 1, CanInline: true, InlinedCalls: 3}

// TestDiffBCE: a bounds check added to a hot function is a regression, one
// removed is a stale baseline; both fail.
func TestDiffBCE(t *testing.T) {
	if d := lint.DiffContracts([]lint.Contract{diffBase}, []lint.Contract{diffBase}); len(d) != 0 {
		t.Errorf("identical contracts should pass, got %v", d)
	}
	d := diffOne(t, diffBase, func(c *lint.Contract) { c.BCEIndex++ }, 1)
	if d[0] != "a.f: bce-index regressed 2 -> 3" {
		t.Errorf("added bounds check: got %q", d[0])
	}
	d = diffOne(t, diffBase, func(c *lint.Contract) { c.BCESlice-- }, 1)
	if d[0] != "a.f: bce-slice improved 1 -> 0 (baseline stale; regenerate)" {
		t.Errorf("removed bounds check: got %q", d[0])
	}
}

// TestDiffEscape: an added escape or moved-to-heap is a regression, a
// removed one a stale baseline, and a function entering or leaving the
// reach set fails too.
func TestDiffEscape(t *testing.T) {
	d := diffOne(t, diffBase, func(c *lint.Contract) { c.Escapes++; c.Moved++ }, 2)
	if d[0] != "a.f: escapes regressed 1 -> 2" || d[1] != "a.f: moved regressed 0 -> 1" {
		t.Errorf("added escape and move: got %q", d)
	}
	d = diffOne(t, diffBase, func(c *lint.Contract) { c.Escapes-- }, 1)
	if d[0] != "a.f: escapes improved 1 -> 0 (baseline stale; regenerate)" {
		t.Errorf("removed escape: got %q", d[0])
	}
	entered := lint.Contract{Func: "a.h"}
	d = lint.DiffContracts([]lint.Contract{diffBase, entered}, []lint.Contract{diffBase})
	want := "a.h: entered the kernel reach set but is not in baseline (bce-index 0 bce-slice 0 escapes 0 moved 0 can-inline no inlined-calls 0)"
	if len(d) != 1 || d[0] != want {
		t.Errorf("function entering the reach set: got %q", d)
	}
	d = lint.DiffContracts(nil, []lint.Contract{diffBase})
	if len(d) != 1 || d[0] != "a.f: in baseline but no longer in the kernel reach set (baseline stale; regenerate)" {
		t.Errorf("function leaving the reach set: got %q", d)
	}
}

// TestDiffInline: any change to the inliner's verdict or folded call
// count fails.
func TestDiffInline(t *testing.T) {
	d := diffOne(t, diffBase, func(c *lint.Contract) { c.CanInline = false; c.InlinedCalls = 1 }, 2)
	if d[0] != "a.f: can-inline changed yes -> no" || d[1] != "a.f: inlined-calls changed 3 -> 1" {
		t.Errorf("flipped verdict and lost call sites: got %q", d)
	}
	d = diffOne(t, diffBase, func(c *lint.Contract) { c.InlinedCalls++ }, 1)
	if d[0] != "a.f: inlined-calls changed 3 -> 4" {
		t.Errorf("gained a call site: got %q", d[0])
	}
}

// gateRun caches one RunGates call so the tests that read it share a
// single compile.
type gateRun struct {
	once sync.Once
	got  []lint.Contract
	err  error
}

func (r *gateRun) contracts(t *testing.T, opts func() lint.GateOptions) []lint.Contract {
	t.Helper()
	if testing.Short() {
		t.Skip("invokes the go compiler; skipped in -short mode")
	}
	r.once.Do(func() { r.got, r.err = lint.RunGates(opts()) })
	if r.err != nil {
		t.Fatalf("RunGates: %v", r.err)
	}
	return r.got
}

var fixtureRun, repoRun gateRun

// fixtureContracts runs the whole gate once over the bcebad, escbad and
// inlinebad fixtures — one build, the compiler as the oracle, the reach
// set rooted at each fixture's kernel* functions.
func fixtureContracts(t *testing.T) map[string]lint.Contract {
	t.Helper()
	got := fixtureRun.contracts(t, func() lint.GateOptions {
		opts := lint.GateOptions{Root: moduleRoot}
		for _, fx := range []string{"bcebad", "escbad", "inlinebad"} {
			dir := filepath.Join("testdata", "src", fx)
			opts.Packages = append(opts.Packages, "./internal/lint/"+filepath.ToSlash(dir))
			opts.Dirs = append(opts.Dirs, dir)
			opts.Roots = append(opts.Roots, lint.HotRoot{PkgSuffix: fx, NamePrefix: "kernel"})
		}
		return opts
	})
	by := make(map[string]lint.Contract, len(got))
	for _, c := range got {
		by[c.Func] = c
	}
	return by
}

// TestRunBCEFixture: data-dependent scatters keep checks, including the
// reachable helper's; the length-tied kernel has none.
func TestRunBCEFixture(t *testing.T) {
	by := fixtureContracts(t)
	for _, f := range []string{"bcebad.kernelScatter", "bcebad.helper"} {
		if c := by[f]; c.BCEIndex+c.BCESlice == 0 {
			t.Errorf("%s keeps residual bounds checks; gate saw %+v", f, c)
		}
	}
	if c, ok := by["bcebad.kernelClean"]; !ok || c.BCEIndex+c.BCESlice != 0 {
		t.Errorf("bcebad.kernelClean must be listed bounds-check-free, got %+v (present=%v)", c, ok)
	}
}

// TestRunEscapeFixture: one moved-to-heap, one escape, one clean kernel.
func TestRunEscapeFixture(t *testing.T) {
	by := fixtureContracts(t)
	if c := by["escbad.kernelMoved"]; c.Moved == 0 {
		t.Errorf("kernelMoved forces a local to the heap; gate saw %+v", c)
	}
	if c := by["escbad.kernelNew"]; c.Escapes == 0 {
		t.Errorf("kernelNew heap-allocates; gate saw %+v", c)
	}
	if c, ok := by["escbad.kernelClean"]; !ok || c.Escapes+c.Moved != 0 {
		t.Errorf("escbad.kernelClean must be listed with zero heap counts, got %+v (present=%v)", c, ok)
	}
}

// TestRunInlineFixture: the inliner accepts the tiny kernel, refuses
// recursion, and folds the tiny kernel into its caller's loop.
func TestRunInlineFixture(t *testing.T) {
	by := fixtureContracts(t)
	if c := by["inlinebad.kernelTiny"]; !c.CanInline {
		t.Errorf("kernelTiny is trivially inlinable; gate saw %+v", c)
	}
	if c := by["inlinebad.kernelBig"]; c.CanInline {
		t.Errorf("recursive kernelBig must not be inlinable; gate saw %+v", c)
	}
	if c := by["inlinebad.kernelCalls"]; c.InlinedCalls == 0 {
		t.Errorf("kernelCalls must show inlined call sites; gate saw %+v", c)
	}
}

// TestRunCompilerFixtures checks the fixture run as a whole: cold
// functions stay outside the reach set, the measurement survives the
// baseline format, and a clean baseline fails with one named line per
// broken contract.
func TestRunCompilerFixtures(t *testing.T) {
	by := fixtureContracts(t)
	for _, cold := range []string{"bcebad.coldScatter", "escbad.coldMoved", "inlinebad.coldCalls"} {
		if c, ok := by[cold]; ok {
			t.Errorf("%s is outside the reach set but was counted: %+v", cold, c)
		}
	}
	got := fixtureRun.got

	// The measurement agrees with itself through the baseline format:
	// exactly how `make gates` passes.
	back, err := lint.ParseContracts(lint.FormatContracts(got))
	if err != nil {
		t.Fatalf("baseline round-trip: %v", err)
	}
	if d := lint.DiffContracts(got, back); len(d) != 0 {
		t.Errorf("self-diff through baseline format should pass, got %v", d)
	}
	clean := make([]lint.Contract, len(got))
	for i, c := range got {
		clean[i] = c
		clean[i].BCEIndex, clean[i].BCESlice, clean[i].Escapes, clean[i].Moved = 0, 0, 0, 0
		if c.Func == "inlinebad.kernelBig" {
			clean[i].CanInline = true
		}
	}
	joined := strings.Join(lint.DiffContracts(got, clean), "\n")
	for _, want := range []string{
		"bcebad.kernelScatter: bce-index regressed 0 -> ",
		"escbad.kernelNew: escapes regressed 0 -> 1",
		"escbad.kernelMoved: moved regressed 0 -> 1",
		"inlinebad.kernelBig: can-inline changed yes -> no",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("diff vs clean baseline missing %q:\n%s", want, joined)
		}
	}
}

// repoDiffs runs the gate once over the module and diffs it against the
// committed COMPILER_baseline.txt, grouping the lines by the column they
// name: each TestRepo*Baseline reports its own contract.
func repoDiffs(t *testing.T) map[string][]string {
	t.Helper()
	got := repoRun.contracts(t, func() lint.GateOptions { return lint.GateOptions{Root: moduleRoot} })
	data, err := os.ReadFile(filepath.Join(moduleRoot, "COMPILER_baseline.txt"))
	if err != nil {
		t.Fatalf("read COMPILER_baseline.txt: %v", err)
	}
	base, err := lint.ParseContracts(data)
	if err != nil {
		t.Fatalf("ParseContracts: %v", err)
	}
	groups := make(map[string][]string)
	for _, d := range lint.DiffContracts(got, base) {
		group := "reach-set"
		if _, rest, ok := strings.Cut(d, ": "); ok {
			switch col, _, _ := strings.Cut(rest, " "); col {
			case lint.KindBCEIndex, lint.KindBCESlice:
				group = "bce"
			case lint.KindEscapes, lint.KindMoved:
				group = "escape"
			case lint.KindCanInline, lint.KindInlineCall:
				group = "inline"
			}
		}
		groups[group] = append(groups[group], d)
	}
	return groups
}

// TestRepoCompilerBaseline is the committed-baseline gate as a test: the
// hot-kernel reach set must list exactly the functions
// COMPILER_baseline.txt lists.
func TestRepoCompilerBaseline(t *testing.T) {
	for _, d := range repoDiffs(t)["reach-set"] {
		t.Errorf("gates: %s", d)
	}
}

// TestRepoBCEBaseline: every reach-set function keeps exactly its
// baselined residual bounds checks.
func TestRepoBCEBaseline(t *testing.T) {
	for _, d := range repoDiffs(t)["bce"] {
		t.Errorf("gates: %s", d)
	}
}

// TestRepoEscapeBaseline: every reach-set function keeps exactly its
// baselined escape and moved-to-heap counts.
func TestRepoEscapeBaseline(t *testing.T) {
	for _, d := range repoDiffs(t)["escape"] {
		t.Errorf("gates: %s", d)
	}
}

// TestRepoInlineBaseline: every reach-set function keeps its inliner
// verdict and folded call count.
func TestRepoInlineBaseline(t *testing.T) {
	for _, d := range repoDiffs(t)["inline"] {
		t.Errorf("gates: %s", d)
	}
}
