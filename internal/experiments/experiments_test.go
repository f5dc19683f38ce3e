package experiments

import (
	"strconv"
	"strings"
	"testing"

	"harpgbdt/internal/boost"
)

// tinyScale keeps every experiment under a second or two.
func tinyScale() Scale {
	return Scale{Rows: 1000, Rounds: 1, ConvRounds: 8, Seed: 7}
}

// smokeScale is the scale TestAllExperimentsRun gives every experiment:
// the smallest that still reaches all of each one's code (4 virtual
// workers keep the block and row-partition paths non-trivial), since the
// test asserts only that the tables render.
func smokeScale() Scale {
	return Scale{Rows: 300, Rounds: 1, ConvRounds: 2, Workers: 4, Seed: 7}
}

func TestNamesAndDispatch(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("have %d experiments, want 16 (every table and figure plus extensions): %v", len(names), names)
	}
	if _, err := Run("nope", tinyScale()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsRun executes every registered experiment at smoke scale
// and sanity-checks the produced tables.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, err := Run(name, smokeScale())
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q has no rows", tb.Title)
				}
				if s := tb.String(); !strings.Contains(s, tb.Headers[0]) {
					t.Fatalf("table render missing headers:\n%s", s)
				}
			}
		})
	}
}

func TestTable3ShapesMatchPaper(t *testing.T) {
	tables, err := Table3(Scale{Rows: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: dataset, N, M, S, S(paper), CV, CV(paper), maxbins.
	for _, row := range tables[0].Rows {
		s := mustFloat(t, row[3])
		sPaper := mustFloat(t, row[4])
		if diff := s - sPaper; diff > 0.1 || diff < -0.1 {
			t.Errorf("%s: S=%v far from paper %v", row[0], s, sPaper)
		}
	}
}

func TestFig12HarpFasterAtLargeTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := Scale{Rows: 12000, Rounds: 2, Seed: 11}
	tables, err := Fig12(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Find per-tree times at the largest D.
	times := map[string]float64{}
	for _, row := range tables[0].Rows {
		if row[1] == "D12" {
			times[row[0]] = mustFloat(t, row[2])
		}
	}
	if len(times) != 4 {
		t.Fatalf("missing trainers at D12: %v", times)
	}
	harp := times["harpgbdt"]
	for _, base := range []string{"xgb-depth", "xgb-leaf", "lightgbm"} {
		if harp >= times[base] {
			t.Errorf("harp (%.1fms) not faster than %s (%.1fms) at D12", harp, base, times[base])
		}
	}
}

func TestTable1BaselineBarrierOverheadVisible(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tables, err := Table1(Scale{Rows: 12000, Rounds: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf-by-leaf engines at D8 must show hundreds of regions per tree.
	for _, row := range tables[0].Rows {
		regions := mustFloat(t, row[3])
		if regions < 100 {
			t.Errorf("%s: only %v regions/tree (expected leaf-by-leaf sync pattern)", row[0], regions)
		}
	}
}

func TestTable6HarpFewerRegionsThanTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := Scale{Rows: 12000, Rounds: 2, Seed: 17}
	t1, err := Table1(sc)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := Table6(sc)
	if err != nil {
		t.Fatal(err)
	}
	minBase := 1e18
	for _, row := range t1[0].Rows {
		if v := mustFloat(t, row[3]); v < minBase {
			minBase = v
		}
	}
	for _, row := range t6[0].Rows {
		if v := mustFloat(t, row[3]); v >= minBase {
			t.Errorf("%s: %v regions/tree not below baseline minimum %v", row[0], v, minBase)
		}
	}
}

func TestDuplicateDataset(t *testing.T) {
	sc := Scale{Rows: 500, Seed: 1}.withDefaults()
	sc.Rows = 500
	ds, err := makeData(sc, "synset")
	if err != nil {
		t.Fatal(err)
	}
	dup := duplicateDataset(ds, 3)
	if dup.NumRows() != 1500 || dup.NumFeatures() != ds.NumFeatures() {
		t.Fatalf("dup dims %dx%d", dup.NumRows(), dup.NumFeatures())
	}
	if err := dup.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if dup.Labels[i] != dup.Labels[i+500] || dup.Labels[i] != dup.Labels[i+1000] {
			t.Fatal("labels not duplicated")
		}
	}
}

func TestSampleHistory(t *testing.T) {
	mk := func(n int) []boost.EvalPoint {
		out := make([]boost.EvalPoint, n)
		for i := range out {
			out[i].Round = i + 1
		}
		return out
	}
	// Short histories pass through unchanged.
	if got := sampleHistory(mk(7)); len(got) != 7 {
		t.Fatalf("short history resampled to %d", len(got))
	}
	// Long histories shrink to ~10 points and keep the last round.
	h := mk(100)
	got := sampleHistory(h)
	if len(got) < 8 || len(got) > 12 {
		t.Fatalf("sampled to %d points", len(got))
	}
	if got[0].Round != 1 || got[len(got)-1].Round != 100 {
		t.Fatalf("endpoints lost: %d..%d", got[0].Round, got[len(got)-1].Round)
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a number: %v", s, err)
	}
	return v
}

func TestRatioAndMs(t *testing.T) {
	if ratio(100, 50) != 2 {
		t.Fatal("ratio")
	}
	if ratio(100, 0) != 0 {
		t.Fatal("ratio zero divisor")
	}
	if ms(2500000) != 2.5 {
		t.Fatal("ms")
	}
}
