package lint_test

import (
	"bufio"
	"fmt"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"harpgbdt/internal/lint"
)

const moduleRoot = "../.."

func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := lint.NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// wantMarkers scans a fixture directory for "// want rule..." comments
// and returns the expected unsuppressed findings as "file:line:rule".
func wantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				continue
			}
			for _, rule := range strings.Fields(text[idx+len("// want "):]) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), line, rule)] = true
			}
		}
		f.Close()
	}
	return want
}

// checkFixture loads one testdata/src package, runs the analyses, and
// compares the unsuppressed findings against the fixture's want markers.
func checkFixture(t *testing.T, name string, analyses []lint.Analysis) []lint.Finding {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader := newLoader(t)
	pkgs, err := loader.LoadDirs([]string{dir})
	if err != nil {
		t.Fatalf("LoadDirs(%s): %v", dir, err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("fixture %s has type errors: %v", name, terr)
		}
	}
	findings := lint.Run(pkgs, analyses)
	got := make(map[string]bool)
	for _, f := range lint.Unsuppressed(findings) {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
	}
	want := wantMarkers(t, dir)
	for k := range want {
		if !got[k] {
			t.Errorf("expected finding %s was not reported", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s", k)
		}
	}
	return findings
}

func TestSpinScopeFixture(t *testing.T) {
	findings := checkFixture(t, "spinbad", lint.DefaultAnalyses("harpgbdt"))
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			if f.Reason == "" {
				t.Errorf("suppressed finding without reason: %v", f)
			}
		}
	}
	if suppressed == 0 {
		t.Error("fixture's harplint:ignore directive suppressed nothing")
	}
}

func TestLockBalanceFixture(t *testing.T) {
	checkFixture(t, "lockbad", lint.DefaultAnalyses("harpgbdt"))
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "detbad", []lint.Analysis{
		lint.NewDeterminismAnalysis("harpgbdt/internal/lint/testdata/src/detbad"),
	})
}

func TestObsHygieneFixture(t *testing.T) {
	checkFixture(t, "obsbad", lint.DefaultAnalyses("harpgbdt"))
}

func TestServeHygieneFixture(t *testing.T) {
	checkFixture(t, "servebad", []lint.Analysis{
		lint.NewObsHygieneAnalysis("harpgbdt/internal/lint/testdata/src/servebad"),
	})
}

func TestObsHygienePerfFixture(t *testing.T) {
	checkFixture(t, "perfbad", lint.DefaultAnalyses("harpgbdt"))
}

func TestObsHygieneLogFixture(t *testing.T) {
	checkFixture(t, "logbad", lint.DefaultAnalyses("harpgbdt"))
}

func TestIgnoreDirectives(t *testing.T) {
	checkFixture(t, "ignorebad", lint.DefaultAnalyses("harpgbdt"))
}

func TestHotAllocFixture(t *testing.T) {
	// Root the rule at the fixture's kernel* functions, the way
	// DefaultHotRoots points it at the histogram kernels.
	checkFixture(t, "hotbad", []lint.Analysis{
		lint.NewHotAllocAnalysis(lint.HotRoot{PkgSuffix: "hotbad", NamePrefix: "kernel"}),
	})
}

func TestGoroutineLeakFixture(t *testing.T) {
	checkFixture(t, "leakbad", lint.DefaultAnalyses("harpgbdt"))
}

func TestErrFlowFixture(t *testing.T) {
	checkFixture(t, "errbad", lint.DefaultAnalyses("harpgbdt"))
}

// TestRuleNames pins the rule inventory: renaming or dropping a rule is
// an interface change that must be deliberate.
func TestRuleNames(t *testing.T) {
	got := lint.RuleNames(lint.DefaultAnalyses("harpgbdt"))
	want := []string{"determinism", "directive", "errflow", "goroutineleak", "hotalloc", "lockbalance", "obshygiene", "spinscope"}
	if !sort.StringsAreSorted(got) {
		t.Errorf("RuleNames not sorted: %v", got)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("RuleNames = %v, want %v", got, want)
	}
}

// TestEveryRuleFires checks that each rule of the default set is expected
// to fire by a want marker in some fixture, so no rule ships without a
// fixture proving it reports. The synthetic directive rule is exempt.
func TestEveryRuleFires(t *testing.T) {
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	fired := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		for key := range wantMarkers(t, filepath.Join(root, e.Name())) {
			fired[key[strings.LastIndex(key, ":")+1:]] = true
		}
	}
	for _, rule := range lint.RuleNames(lint.DefaultAnalyses("harpgbdt")) {
		if rule != "directive" && !fired[rule] {
			t.Errorf("rule %s has no // want marker in any fixture under %s", rule, root)
		}
	}
}

// TestLoaderBuildTags pins the loader's build-configuration handling: the
// invariant.Enabled constant must fold to false under the default
// configuration and to true under -tags harpdebug, because the
// interprocedural analyses prune dead branches on exactly that constant.
func TestLoaderBuildTags(t *testing.T) {
	cases := []struct {
		tags []string
		want bool
	}{
		{nil, false},
		{[]string{"harpdebug"}, true},
	}
	for _, tc := range cases {
		l, err := lint.NewLoaderTags(moduleRoot, tc.tags...)
		if err != nil {
			t.Fatalf("NewLoaderTags(%v): %v", tc.tags, err)
		}
		pkgs, err := l.LoadDirs([]string{filepath.Join(moduleRoot, "internal", "invariant")})
		if err != nil {
			t.Fatalf("tags %v: LoadDirs: %v", tc.tags, err)
		}
		obj := pkgs[0].Types.Scope().Lookup("Enabled")
		c, ok := obj.(*types.Const)
		if !ok {
			t.Fatalf("tags %v: invariant.Enabled is %T, want constant", tc.tags, obj)
		}
		if got := constant.BoolVal(c.Val()); got != tc.want {
			t.Errorf("tags %v: invariant.Enabled = %v, want %v", tc.tags, got, tc.want)
		}
	}
}

// TestRepoCleanHarpdebug lints the harpdebug configuration of the module:
// the tag-gated invariant layer and every branch it enables must satisfy
// the same rules as the release configuration.
func TestRepoCleanHarpdebug(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	l, err := lint.NewLoaderTags(moduleRoot, "harpdebug")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings := lint.Run(pkgs, lint.DefaultAnalyses(l.Module))
	for _, f := range lint.Unsuppressed(findings) {
		t.Errorf("unsuppressed finding (harpdebug): %v", f)
	}
}

// TestRepoCleanRace lints the race-detector build configuration: the
// files and constant branches selected by the race tag (the
// instrumentation-detection layer) must satisfy the same rules as the
// other two configurations.
func TestRepoCleanRace(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	l, err := lint.NewLoaderTags(moduleRoot, "race")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings := lint.Run(pkgs, lint.DefaultAnalyses(l.Module))
	for _, f := range lint.Unsuppressed(findings) {
		t.Errorf("unsuppressed finding (race): %v", f)
	}
}

// TestRepoClean is the golden test: the production tree must lint clean —
// every remaining finding carries a justified suppression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader := newLoader(t)
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings := lint.Run(pkgs, lint.DefaultAnalyses(loader.Module))
	for _, f := range lint.Unsuppressed(findings) {
		t.Errorf("unsuppressed finding: %v", f)
	}
}
