package lint

// The compiler-contract gate.
//
// The paper's cost model assumes the block kernels compile flat: no
// residual bounds check per (row, feature), nothing escaping to the heap,
// and the per-bin helpers folded into their callers. No AST rule can see
// any of that — the compiler is the only authority — so this gate asks it
// directly:
//
//  1. run ONE `go build -gcflags='-m=1 -d=ssa/check_bce' <patterns>` at
//     the module root and parse its output STRICTLY: every line must be a
//     `# package` header or a diagnostic of a known family, and an
//     unrecognized line is an error, never a skip — a toolchain format
//     change must break the gate loudly, not empty it;
//  2. count a residual bounds check once per file:line:col and kind: with
//     both flags on, the compiler prints some `Found` lines two to four
//     times. Only `Found` lines collapse — the -m lines match an -m=1-only
//     build line for line, and a repeated `inlining call to` is real (each
//     call a nested inline folds in reports at the outer call site);
//  3. load the module with the lint loader, compute the hot-kernel reach
//     set (the hotalloc BFS over live call edges from DefaultHotRoots)
//     and map every diagnostic to its enclosing function by file:line;
//  4. emit one Contract per reach-set function, zero counts included, so
//     the reach set itself is pinned, and diff against the committed
//     COMPILER_baseline.txt.
//
// Counts are keyed by function label, not line number, so edits elsewhere
// in a file do not invalidate the baseline. Regenerate deliberately with
// `harplint -gates -update`. The gate needs the compiler, so it is not one
// of DefaultAnalyses: it runs via `harplint -gates` and `make gates`.

import (
	"fmt"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic kinds the gate counts.
const (
	// KindBCEIndex: `Found IsInBounds` — an index bounds check the prove
	// pass could not eliminate.
	KindBCEIndex = "bce-index"
	// KindBCESlice: `Found IsSliceInBounds` — a residual slice-bounds check.
	KindBCESlice = "bce-slice"
	// KindEscapes: `<expr> escapes to heap` — a value the function
	// creates is heap-allocated.
	KindEscapes = "escapes"
	// KindMoved: `moved to heap: <var>` — a local's storage was forced
	// off the stack.
	KindMoved = "moved"
	// KindCanInline: `can inline <func>` — the function is under the
	// inlining budget. At -m=1 the inliner is silent about functions it
	// rejects, so absence of this diagnostic IS the rejection.
	KindCanInline = "can-inline"
	// KindInlineCall: `inlining call to <func>` — a call site was
	// replaced by the callee's body.
	KindInlineCall = "inlined-calls"
)

// CompilerDiag is one parsed compiler diagnostic the gate keeps.
type CompilerDiag struct {
	File string // path as printed by the compiler (relative to the build dir)
	Line int
	Col  int
	Kind string // one of the Kind* constants
	// Detail is the message payload: the function name for the inline
	// kinds, the expression or variable for the escape kinds, empty for
	// bounds checks.
	Detail string
}

// Contract is the per-hot-function record COMPILER_baseline.txt pins.
type Contract struct {
	Func     string // function label (package.Recv.Name)
	BCEIndex int    // residual IsInBounds checks inside the function
	BCESlice int    // residual IsSliceInBounds checks
	Escapes  int    // `... escapes to heap` diagnostics
	Moved    int    // `moved to heap: ...` diagnostics
	// CanInline reports whether the inliner judged the function itself
	// inlinable into its callers.
	CanInline bool
	// InlinedCalls is the number of call sites inside the function that
	// the inliner replaced with the callee's body.
	InlinedCalls int
}

// counter is one baseline column whose rise is a regression and whose
// fall is a stale baseline; both fail the gate.
type counter struct {
	name string
	n    *int
}

// counters lists c's up/down columns in baseline order.
func (c *Contract) counters() [4]counter {
	return [4]counter{
		{KindBCEIndex, &c.BCEIndex},
		{KindBCESlice, &c.BCESlice},
		{KindEscapes, &c.Escapes},
		{KindMoved, &c.Moved},
	}
}

// GateOptions configures a compiler-contract gate run.
type GateOptions struct {
	// Root is the module root; `go build` runs there and relative
	// diagnostic paths resolve against it.
	Root string
	// Packages are the go build patterns; default is {"./..."}.
	Packages []string
	// Dirs, when non-empty, restricts the loaded source to these
	// directories (fixture runs); default loads the whole module.
	Dirs []string
	// Roots are the kernel root selectors; default is DefaultHotRoots.
	Roots []HotRoot
}

// RunGates executes the compiler-contract gate: one build, one parse, and
// one Contract per hot-kernel-reach-set function, sorted by label.
func RunGates(opts GateOptions) ([]Contract, error) {
	if len(opts.Packages) == 0 {
		opts.Packages = []string{"./..."}
	}
	if opts.Roots == nil {
		opts.Roots = DefaultHotRoots()
	}
	args := append([]string{"build", "-gcflags=-m=1 -d=ssa/check_bce"}, opts.Packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = opts.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	diags, err := ParseCompilerOutput(out)
	if err != nil {
		return nil, err
	}
	loader, err := NewLoader(opts.Root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	if len(opts.Dirs) > 0 {
		pkgs, err = loader.LoadDirs(opts.Dirs)
	} else {
		pkgs, err = loader.LoadModule()
	}
	if err != nil {
		return nil, err
	}
	return CountContracts(loader, pkgs, diags, opts.Roots), nil
}

// ParseCompilerOutput parses `go build -gcflags='-m=1 -d=ssa/check_bce'`
// output into the diagnostics the gate counts. A repeated bounds-check
// line is kept once (see step 2 above). Recognized families the gate does
// not count (does-not-escape proofs, leaking-param summaries,
// devirtualizations, compiler-synthesized `<autogenerated>` wrappers) are
// dropped; anything else unrecognized is a format-drift error.
func ParseCompilerOutput(out []byte) ([]CompilerDiag, error) {
	var diags []CompilerDiag
	seenCheck := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		// Synthesized wrappers (promoted-method and interface thunks)
		// have no source location to map: recognized and dropped, but
		// only with a known message family.
		if rest, ok := strings.CutPrefix(line, "<autogenerated>:"); ok {
			if i := strings.IndexByte(rest, ':'); i > 0 {
				if _, err := strconv.Atoi(rest[:i]); err == nil {
					if _, _, known := classifyM(strings.TrimPrefix(rest[i+1:], " ")); known {
						continue
					}
				}
			}
			return nil, compilerDrift(line)
		}
		d, keep, err := parseCompilerLine(line)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		if d.Kind == KindBCEIndex || d.Kind == KindBCESlice {
			if seenCheck[line] {
				continue
			}
			seenCheck[line] = true
		}
		diags = append(diags, d)
	}
	return diags, nil
}

func compilerDrift(line string) error {
	return fmt.Errorf("lint: unrecognized compiler diagnostic %q (compiler output format drift? the compiler-contract gate refuses to guess)", line)
}

// parseCompilerLine parses one `file:line:col: <message>` diagnostic.
func parseCompilerLine(line string) (CompilerDiag, bool, error) {
	// The location prefix ends at the first ": " — message payloads may
	// themselves contain colons, but never before a space.
	loc, msg, ok := strings.Cut(line, ": ")
	if !ok {
		return CompilerDiag{}, false, compilerDrift(line)
	}
	i := strings.LastIndexByte(loc, ':')
	if i < 0 {
		return CompilerDiag{}, false, compilerDrift(line)
	}
	col, err := strconv.Atoi(loc[i+1:])
	if err != nil || col <= 0 {
		return CompilerDiag{}, false, compilerDrift(line)
	}
	loc = loc[:i]
	i = strings.LastIndexByte(loc, ':')
	if i < 0 {
		return CompilerDiag{}, false, compilerDrift(line)
	}
	ln, err := strconv.Atoi(loc[i+1:])
	if err != nil || ln <= 0 {
		return CompilerDiag{}, false, compilerDrift(line)
	}
	file := loc[:i]
	if file == "" {
		return CompilerDiag{}, false, compilerDrift(line)
	}
	kind, detail, known := classifyM(msg)
	if !known {
		return CompilerDiag{}, false, compilerDrift(line)
	}
	if kind == "" {
		return CompilerDiag{}, false, nil // recognized family the gate drops
	}
	return CompilerDiag{File: file, Line: ln, Col: col, Kind: kind, Detail: detail}, true, nil
}

// classifyM maps a diagnostic message to its family. kind is empty for
// recognized families the gate drops; known is false for format drift.
func classifyM(msg string) (kind, detail string, known bool) {
	switch {
	case msg == "Found IsInBounds":
		return KindBCEIndex, "", true
	case msg == "Found IsSliceInBounds":
		return KindBCESlice, "", true
	case strings.HasPrefix(msg, "can inline "):
		return KindCanInline, strings.TrimPrefix(msg, "can inline "), true
	case strings.HasPrefix(msg, "inlining call to "):
		return KindInlineCall, strings.TrimPrefix(msg, "inlining call to "), true
	case strings.HasSuffix(msg, " escapes to heap"):
		return KindEscapes, strings.TrimSuffix(msg, " escapes to heap"), true
	case strings.HasPrefix(msg, "moved to heap: "):
		return KindMoved, strings.TrimPrefix(msg, "moved to heap: "), true
	case strings.HasSuffix(msg, " does not escape"),
		strings.HasPrefix(msg, "leaking param"),
		// Self-assignment notes print as `<func> ignoring self-assignment
		// in <expr>`: the family marker sits mid-message.
		strings.Contains(msg, "ignoring self-assignment in "),
		strings.HasPrefix(msg, "devirtualizing "),
		msg == "zero-copy string->[]byte conversion",
		// The type checker's note for an array indexed by a type that
		// cannot exceed its length (a [256]T by a uint8): no bounds check
		// was ever generated. The gate counts the checks that remain.
		msg == "index bounds check elided":
		// Proof-of-goodness and optimization-note families: recognized,
		// irrelevant to the gate.
		return "", "", true
	}
	return "", "", false
}

// hotFuncRange is the source extent of one function in the hot-kernel
// reach set.
type hotFuncRange struct {
	startLine, endLine int
	label              string
	// cname is the function's name the way compiler diagnostics spell it:
	// Name, Recv.Name, or (*Recv).Name.
	cname string
}

// hotRanges computes the source extents of every function in the
// hot-kernel reach set (the hotalloc BFS from roots over live call
// edges), keyed by absolute filename, plus the sorted labels of the whole
// set — the baseline accounts for every reach-set function, diagnostics
// or not.
func hotRanges(loader *Loader, pkgs []*Package, roots []HotRoot) (map[string][]hotFuncRange, []string) {
	hot := &hotAllocAnalysis{roots: roots}
	hot.Prepare(pkgs)
	ranges := make(map[string][]hotFuncRange)
	var labels []string
	g := BuildCallGraph(pkgs)
	for _, fi := range g.Funcs() {
		if _, ok := hot.reach[fi.Obj]; !ok {
			continue
		}
		start := loader.Fset().Position(fi.Decl.Pos())
		end := loader.Fset().Position(fi.Decl.End())
		label := funcLabel(fi.Obj)
		ranges[start.Filename] = append(ranges[start.Filename], hotFuncRange{
			startLine: start.Line,
			endLine:   end.Line,
			label:     label,
			cname:     compilerFuncName(fi.Obj),
		})
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return ranges, labels
}

// compilerFuncName renders a function's name the way -m diagnostics
// spell it: plain functions print bare, methods print as Recv.Name (value
// receiver) or (*Recv).Name (pointer receiver).
func compilerFuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			if n, ok := p.Elem().(*types.Named); ok {
				return "(*" + n.Obj().Name() + ")." + fn.Name()
			}
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// baseDiagName strips a generic instantiation suffix from a compiler
// function name (`f[go.shape.int]` -> `f`) so names compare against
// source declarations.
func baseDiagName(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		return name[:i]
	}
	return name
}

// CountContracts maps diagnostics into the hot-kernel reach set and
// returns one Contract per reach-set function, sorted by label.
// Diagnostics outside the reach set are dropped: cold setup code may
// allocate and keep its checks. A diagnostic the compiler attributes to
// an inlined callee's call site counts against the caller — the function
// whose loop carries it. A `can inline` diagnostic counts only on the
// function's declaration line and naming the function itself: the inliner
// also reports synthesized closures (`f.func1`) inside the body.
func CountContracts(loader *Loader, pkgs []*Package, diags []CompilerDiag, roots []HotRoot) []Contract {
	ranges, labels := hotRanges(loader, pkgs, roots)
	out := make([]Contract, len(labels))
	byFunc := make(map[string]*Contract, len(labels))
	for i, l := range labels {
		out[i] = Contract{Func: l}
		byFunc[l] = &out[i]
	}
	for _, d := range diags {
		file := d.File
		if !filepath.IsAbs(file) {
			file = filepath.Join(loader.Root, file)
		}
		var r *hotFuncRange
		for i, fr := range ranges[file] {
			if d.Line >= fr.startLine && d.Line <= fr.endLine {
				r = &ranges[file][i]
				break
			}
		}
		if r == nil {
			continue
		}
		c := byFunc[r.label]
		switch d.Kind {
		case KindBCEIndex:
			c.BCEIndex++
		case KindBCESlice:
			c.BCESlice++
		case KindEscapes:
			c.Escapes++
		case KindMoved:
			c.Moved++
		case KindCanInline:
			if d.Line == r.startLine && baseDiagName(d.Detail) == r.cname {
				c.CanInline = true
			}
		case KindInlineCall:
			c.InlinedCalls++
		}
	}
	return out
}

// FormatContracts renders contracts in the committed baseline format.
func FormatContracts(cs []Contract) []byte {
	var b strings.Builder
	b.WriteString("# COMPILER baseline: the Go compiler's verdict on every function in the\n")
	b.WriteString("# hot-kernel reach set (one go build -gcflags='-m=1 -d=ssa/check_bce',\n")
	b.WriteString("# mapped to enclosing functions by harplint -gates). bce-index/bce-slice\n")
	b.WriteString("# count residual bounds checks, escapes/moved count heap diagnostics,\n")
	b.WriteString("# can-inline and inlined-calls pin the inliner. Every reach-set function\n")
	b.WriteString("# is listed, zeros included. Any drift fails `make gates`; regenerate\n")
	b.WriteString("# deliberately with `go run ./cmd/harplint -gates -update`.\n")
	for _, c := range cs {
		fmt.Fprintf(&b, "%s %s\n", c.Func, c.columns())
	}
	return []byte(b.String())
}

// columns renders c's baseline columns, everything after the label.
func (c Contract) columns() string {
	var b strings.Builder
	for _, k := range c.counters() {
		fmt.Fprintf(&b, "%s %d ", k.name, *k.n)
	}
	fmt.Fprintf(&b, "%s %s %s %d", KindCanInline, yesno(c.CanInline), KindInlineCall, c.InlinedCalls)
	return b.String()
}

func yesno(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// ParseContracts parses a committed baseline file. Strict, like the
// diagnostic parser: every column must be present, in order, well formed.
func ParseContracts(data []byte) ([]Contract, error) {
	var out []Contract
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		bad := func(what string) error {
			return fmt.Errorf("lint: COMPILER baseline line %d: %s in %q", i+1, what, line)
		}
		f := strings.Fields(line)
		if len(f) != 13 {
			return nil, bad("want `func bce-index N bce-slice N escapes N moved N can-inline yes|no inlined-calls N`")
		}
		c := Contract{Func: f[0]}
		for j, k := range c.counters() {
			name, val := f[1+2*j], f[2+2*j]
			n, err := strconv.Atoi(val)
			if name != k.name || err != nil || n < 0 {
				return nil, bad(fmt.Sprintf("bad %s column %q %q", k.name, name, val))
			}
			*k.n = n
		}
		if f[9] != KindCanInline || (f[10] != "yes" && f[10] != "no") {
			return nil, bad(fmt.Sprintf("bad can-inline column %q %q", f[9], f[10]))
		}
		c.CanInline = f[10] == "yes"
		n, err := strconv.Atoi(f[12])
		if f[11] != KindInlineCall || err != nil || n < 0 {
			return nil, bad(fmt.Sprintf("bad inlined-calls column %q %q", f[11], f[12]))
		}
		c.InlinedCalls = n
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out, nil
}

// DiffContracts compares measured contracts against the baseline and
// returns one human-readable line per discrepancy; empty means the gate
// passes. A rise in bounds checks, escapes or moved-to-heap is a
// regression and a fall a stale baseline; any inliner change fails; so
// does a function entering or leaving the reach set.
func DiffContracts(got, want []Contract) []string {
	wantBy := make(map[string]Contract, len(want))
	for _, c := range want {
		wantBy[c.Func] = c
	}
	var diffs []string
	seen := make(map[string]bool, len(got))
	for _, c := range got {
		seen[c.Func] = true
		base, ok := wantBy[c.Func]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: entered the kernel reach set but is not in baseline (%s)", c.Func, c.columns()))
			continue
		}
		gotCols, baseCols := c.counters(), base.counters()
		for j, k := range gotCols {
			was := *baseCols[j].n
			switch {
			case *k.n > was:
				diffs = append(diffs, fmt.Sprintf("%s: %s regressed %d -> %d", c.Func, k.name, was, *k.n))
			case *k.n < was:
				diffs = append(diffs, fmt.Sprintf("%s: %s improved %d -> %d (baseline stale; regenerate)", c.Func, k.name, was, *k.n))
			}
		}
		if c.CanInline != base.CanInline {
			diffs = append(diffs, fmt.Sprintf("%s: can-inline changed %s -> %s", c.Func, yesno(base.CanInline), yesno(c.CanInline)))
		}
		if c.InlinedCalls != base.InlinedCalls {
			diffs = append(diffs, fmt.Sprintf("%s: inlined-calls changed %d -> %d", c.Func, base.InlinedCalls, c.InlinedCalls))
		}
	}
	for _, c := range want {
		if !seen[c.Func] {
			diffs = append(diffs, fmt.Sprintf("%s: in baseline but no longer in the kernel reach set (baseline stale; regenerate)", c.Func))
		}
	}
	sort.Strings(diffs)
	return diffs
}
