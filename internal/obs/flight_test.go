package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFlightRingRetainsTail(t *testing.T) {
	r := NewFlightRecorder(4, "")
	for i := 0; i < 10; i++ {
		r.Record(FlightEvent{Msg: "ev", Attrs: map[string]any{"i": i}})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for k, ev := range evs {
		if want := uint64(6 + k); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d", k, ev.Seq, want)
		}
		if got := ev.Attrs["i"].(int); got != 6+k {
			t.Errorf("event %d carries i=%v, want %d", k, got, 6+k)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len %d, want 4", r.Len())
	}
}

func TestFlightRecordConcurrent(t *testing.T) {
	r := NewFlightRecorder(64, "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(FlightEvent{Msg: "ev"})
			}
		}()
	}
	wg.Wait()
	if got := r.cursor.Load(); got != 1600 {
		t.Fatalf("recorded %d events, want 1600", got)
	}
	if len(r.Events()) != 64 {
		t.Fatalf("retained %d, want 64", len(r.Events()))
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	r := NewFlightRecorder(8, path)
	r.Record(FlightEvent{Msg: "round complete", Level: "INFO",
		Attrs: map[string]any{KeyRun: "abc", KeyRound: 3}})
	got, err := r.Dump("test-crash")
	if err != nil {
		t.Fatal(err)
	}
	if got != path {
		t.Fatalf("dump path %q, want %q", got, path)
	}
	doc, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Reason != "test-crash" || doc.TotalEvents != 1 || len(doc.Events) != 1 {
		t.Fatalf("dump %+v", doc)
	}
	ev := doc.Events[0]
	if ev.Msg != "round complete" || ev.Attrs[KeyRun] != "abc" || ev.Attrs[KeyRound] != float64(3) {
		t.Fatalf("event %+v", ev)
	}

	// First dump wins: a later dump (outer recovery layer) must not
	// overwrite the one closest to the fault.
	r.Record(FlightEvent{Msg: "late"})
	if _, err := r.Dump("outer-layer"); err != nil {
		t.Fatal(err)
	}
	doc2, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Reason != "test-crash" {
		t.Fatalf("second dump overwrote the first: %q", doc2.Reason)
	}
}

func TestFlightDumpCorruptRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	r := NewFlightRecorder(8, path)
	r.Record(FlightEvent{Msg: "ev"})
	if _, err := r.Dump("x"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightDump(path); err == nil {
		t.Fatal("corrupt dump accepted")
	}
	// A file without a footer is rejected too.
	bare := filepath.Join(t.TempDir(), "bare.json")
	if err := os.WriteFile(bare, []byte(`{"reason":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightDump(bare); err == nil {
		t.Fatal("footer-less dump accepted")
	}
}

func TestArmedRecorderCapturesLoggerEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	ArmFlightRecorder(path, 16)
	defer ArmFlightRecorder("", 0)

	// Even the nil default logger must feed the armed recorder, and DEBUG
	// events land in the ring regardless of any output level.
	L().Info("train start", KeyRun, "r1")
	L().With(KeyRun, "r1", KeyNode, 2).Debug("round complete", KeyRound, 7)
	if got := Flight().Len(); got != 2 {
		t.Fatalf("recorder holds %d events, want 2", got)
	}
	if _, err := DumpFlight("test"); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 2 {
		t.Fatalf("dump has %d events, want 2", len(doc.Events))
	}
	ev := doc.Events[1]
	if ev.Attrs[KeyRun] != "r1" || ev.Attrs[KeyNode] != float64(2) || ev.Attrs[KeyRound] != float64(7) {
		t.Fatalf("bound keys lost: %+v", ev)
	}
	if ev.Level != "DEBUG" {
		t.Fatalf("level %q, want DEBUG", ev.Level)
	}
}

func TestDumpFlightDisarmedNoop(t *testing.T) {
	ArmFlightRecorder("", 0)
	path, err := DumpFlight("nothing armed")
	if err != nil || path != "" {
		t.Fatalf("disarmed dump: path %q err %v", path, err)
	}
	L().Info("dropped on the floor") // must not panic with nothing armed
}

func TestLoggerOutputJSON(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	lg.Debug("hidden", KeyRound, 1)
	lg.With(KeyRun, "r9").Warn("node died", KeyNode, 3)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("DEBUG leaked through INFO level: %s", out)
	}
	if !strings.Contains(out, `"msg":"node died"`) ||
		!strings.Contains(out, `"run":"r9"`) || !strings.Contains(out, `"node":3`) {
		t.Fatalf("output missing structured fields: %s", out)
	}
}

// TestLoggerEnabled: Enabled answers what log would do with the event —
// the handler's level decides, unless a flight recorder is armed, which
// takes every level, even through a nil logger.
func TestLoggerEnabled(t *testing.T) {
	var nilLogger *Logger
	info := NewLogger(&bytes.Buffer{}, slog.LevelInfo)
	if nilLogger.Enabled(slog.LevelError) || NewLogger(nil, slog.LevelDebug).Enabled(slog.LevelError) {
		t.Fatal("a logger with no output and no recorder reports enabled")
	}
	if info.Enabled(slog.LevelDebug) || !info.With(KeyRun, "r").Enabled(slog.LevelInfo) {
		t.Fatal("Enabled does not follow the handler's level")
	}
	ArmFlightRecorder(filepath.Join(t.TempDir(), "flight.json"), 4)
	defer ArmFlightRecorder("", 0)
	if !nilLogger.Enabled(slog.LevelDebug) || !info.Enabled(slog.LevelDebug) {
		t.Fatal("an armed flight recorder does not enable DEBUG")
	}
}

func TestLoggerMalformedPairs(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	lg.Info("odd", KeyRound) // trailing key without value
	if !strings.Contains(buf.String(), "(MISSING)") {
		t.Fatalf("missing-value marker absent: %s", buf.String())
	}
	buf.Reset()
	lg.Info("badkey", 42, "v")
	if !strings.Contains(buf.String(), "!BADKEY") {
		t.Fatalf("bad-key marker absent: %s", buf.String())
	}
}

func TestNewRunIDUnique(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if a == "" || a == b {
		t.Fatalf("run ids %q, %q", a, b)
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var lg *Logger
	lg.Info("msg", KeyRound, 1)
	lg.Error("msg", KeyError, fmt.Errorf("boom"))
	lg2 := lg.With(KeyRun, "x")
	lg2.Warn("msg")
}
