package dataset

// Table-driven error-path tests for the text loaders, plus corruption
// detection on the binary cache: malformed input must fail with a clear
// error, never a panic or a silently wrong dataset.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadLibSVMRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty file", "", "no data rows"},
		{"only comments", "# header\n\n# more\n", "no data rows"},
		{"bad label", "x 0:1\n", "bad label"},
		{"nan label", "nan 0:1\n", "non-finite label"},
		{"inf label", "+inf 0:1\n", "non-finite label"},
		{"overflow label", "1e300 0:1\n", "bad label"},
		{"missing colon", "1 0\n", "bad pair"},
		{"empty index", "1 :5\n", "bad pair"},
		{"bad index", "1 a:5\n", "bad index"},
		{"negative index", "1 -2:5\n", "bad index"},
		{"bad value", "1 0:x\n", "bad value"},
		{"nan value", "1 0:nan\n", "non-finite value"},
		{"inf value", "1 0:inf\n", "non-finite value"},
		{"unsorted columns", "1 3:1 1:2\n", "strictly increasing"},
		{"duplicate column", "1 2:1 2:2\n", "strictly increasing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ReadLibSVM(strings.NewReader(c.in), 0)
			if err == nil {
				t.Fatalf("accepted %q", c.in)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestReadLibSVMRejectsColumnBeyondFeatureCount(t *testing.T) {
	if _, _, err := ReadLibSVM(strings.NewReader("1 7:1\n"), 4); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("column 7 with 4 features: %v", err)
	}
}

func TestReadCSVRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty file", "", "no data rows"},
		{"only blank lines", "\n\n  \n", "no data rows"},
		{"bad label", "a,1\n", "bad label"},
		{"nan label", "nan,1\n", "non-finite label"},
		{"inf label", "-inf,1\n", "non-finite label"},
		{"overflow label", "4e40,1\n", "bad label"},
		{"ragged row", "1,2\n1,2,3\n", "want"},
		{"bad value", "1,x\n", "invalid syntax"},
		{"inf value", "1,inf\n", "infinite value"},
		{"overflow value", "1,1e39\n", "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ReadCSV(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("accepted %q", c.in)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestReadCSVExplicitNaNIsMissing(t *testing.T) {
	d, labels, err := ReadCSV(strings.NewReader("1,nan,2\n0,3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 {
		t.Fatalf("%d labels", len(labels))
	}
	if v := d.Row(0)[0]; v == v {
		t.Fatalf("explicit nan should be missing, got %v", v)
	}
}

func TestCacheFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.bin")
	d := NewDense(50, 3)
	labels := make([]float32, 50)
	for i := 0; i < 50; i++ {
		for j := 0; j < 3; j++ {
			d.Row(i)[j] = float32(i*3+j) / 7
		}
		labels[i] = float32(i % 2)
	}
	ds, err := FromDense("t", d, labels, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCacheFile(path, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCacheFile(path); err != nil {
		t.Fatalf("clean cache rejected: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCacheFile(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("bit flip not detected: %v", err)
	}
}

func TestCacheRejectsNonFiniteLabels(t *testing.T) {
	d := NewDense(10, 2)
	labels := make([]float32, 10)
	for i := range labels {
		d.Row(i)[0] = float32(i)
		d.Row(i)[1] = float32(i) / 2
		labels[i] = float32(i % 2)
	}
	ds, err := FromDense("t", d, labels, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds); err != nil {
		t.Fatal(err)
	}
	// Tamper with the serialized labels (no file footer in play here: the
	// format-level check must catch it).
	ds.Labels[3] = nanF32()
	var bad bytes.Buffer
	if err := WriteCache(&bad, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCache(&bad); err == nil || !strings.Contains(err.Error(), "non-finite label") {
		t.Fatalf("nan label not rejected: %v", err)
	}
}

func TestCacheRejectsBadCuts(t *testing.T) {
	// Feature 1 is constant: its one cut skips the strict-increase check,
	// so only an explicit NaN check catches a NaN there.
	d := NewDense(10, 2)
	for i := 0; i < 10; i++ {
		d.Set(i, 0, float32(i))
		d.Set(i, 1, 5)
	}
	ds, err := FromDense("t", d, make([]float32, 10), 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds); err != nil {
		t.Fatal(err)
	}
	// Header, name, maxBins and the cut count precede Ptr; Vals follows it.
	ptrOff := 16 + 4 + len(ds.Name) + 4 + 4
	valsOff := ptrOff + 4*(ds.Cuts.M+1)
	for _, tc := range []struct {
		name string
		off  int
		word uint32
		want string
	}{
		{"nan cut", valsOff + 4*int(ds.Cuts.Ptr[1]), 0x7fc00000, "NaN cut"},
		{"ptr beyond vals", ptrOff + 4*ds.Cuts.M, uint32(len(ds.Cuts.Vals) + 1), "cuts ptr spans"},
	} {
		raw := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(raw[tc.off:], tc.word)
		if _, err := ReadCache(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
