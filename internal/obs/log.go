package obs

// Structured logging with a stable key schema. Every log event a training
// component emits goes through obs.Logger: a thin log/slog wrapper that
// (1) writes JSON lines to an optional output writer, level-filtered, and
// (2) always records the event into the armed flight recorder, so the
// crash post-mortem contains the full recent event stream even when the
// configured output level was quiet.
//
// Keys are package constants (KeyRun, KeyNode, KeyRound, ...) and the
// harplint obshygiene rule requires every message and key literal at a
// Logger call site to be a compile-time constant — the log schema stays
// grep-able, like the metric and span schemas.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// The stable structured-log key schema. Components attach what they know:
// boost binds run+round, dist binds node+round, sched binds worker.
const (
	// KeyRun is the run id correlating every event of one training run.
	KeyRun = "run"
	// KeyNode is the simulated cluster node index.
	KeyNode = "node"
	// KeyRound is the boosting round (1-based in logs, like the CLI).
	KeyRound = "round"
	// KeyDepth is the tree depth a phase operated at.
	KeyDepth = "depth"
	// KeyPhase is the training phase (BuildHist, FindSplit, ApplySplit).
	KeyPhase = "phase"
	// KeyWorker is the pool worker index.
	KeyWorker = "worker"
	// KeyPoint is the fault-injection point name.
	KeyPoint = "point"
	// KeyComponent is the emitting subsystem (boost, dist, sched, fault).
	KeyComponent = "component"
	// KeyError carries an error string.
	KeyError = "err"
	// KeyReq is the serving request id within a run.
	KeyReq = "req"
	// KeyBatch is the serving batch id a request was coalesced into.
	KeyBatch = "batch"
	// KeyRows is the row count of a serving request or batch.
	KeyRows = "rows"
)

// Logger is a nil-safe structured logger. A nil *Logger (and the zero
// default) still records into the armed flight recorder; output goes to a
// writer only when configured via NewLogger/SetDefaultLogger.
type Logger struct {
	h     slog.Handler // nil = no output, flight recording only
	attrs []slog.Attr  // bound context from With
}

// NewLogger returns a logger writing JSON lines at or above level to w
// (nil w disables output; events still feed the flight recorder).
func NewLogger(w io.Writer, level slog.Leveler) *Logger {
	l := &Logger{}
	if w != nil {
		l.h = slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	}
	return l
}

// With returns a logger that adds the given key/value pairs to every
// event. Keys must be compile-time constant strings (enforced by the
// obshygiene lint rule). Nil-safe.
func (l *Logger) With(kv ...any) *Logger {
	attrs := argsToAttrs(kv)
	if len(attrs) == 0 {
		return l
	}
	nl := &Logger{}
	if l != nil {
		nl.h = l.h
		nl.attrs = append(append([]slog.Attr{}, l.attrs...), attrs...)
	} else {
		nl.attrs = attrs
	}
	return nl
}

// Debug logs at DEBUG level: chatty per-round / per-step events. They
// rarely reach the output writer but always land in the flight ring, so a
// crash dump shows the fine-grained tail.
func (l *Logger) Debug(msg string, kv ...any) { l.log(slog.LevelDebug, msg, kv) }

// Info logs at INFO level.
func (l *Logger) Info(msg string, kv ...any) { l.log(slog.LevelInfo, msg, kv) }

// Warn logs at WARN level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(slog.LevelWarn, msg, kv) }

// Error logs at ERROR level.
func (l *Logger) Error(msg string, kv ...any) { l.log(slog.LevelError, msg, kv) }

// Enabled reports whether an event at level would be recorded: a flight
// recorder is armed, or the logger's handler takes the level. A caller
// whose arguments cost an allocation to pass guards the call with it.
// Nil-safe.
func (l *Logger) Enabled(level slog.Level) bool {
	if defaultFlight.Load() != nil {
		return true
	}
	return l != nil && l.h != nil && l.h.Enabled(context.Background(), level)
}

func (l *Logger) log(level slog.Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	fr := defaultFlight.Load()
	var h slog.Handler
	var bound []slog.Attr
	if l != nil {
		h = l.h
		bound = l.attrs
	}
	attrs := argsToAttrs(kv)
	if fr != nil {
		m := make(map[string]any, len(bound)+len(attrs))
		for _, a := range bound {
			m[a.Key] = flightValue(a.Value)
		}
		for _, a := range attrs {
			m[a.Key] = flightValue(a.Value)
		}
		fr.Record(FlightEvent{
			TimeUnixNanos: time.Now().UnixNano(),
			Level:         level.String(),
			Msg:           msg,
			Attrs:         m,
		})
	}
	if h != nil && h.Enabled(context.Background(), level) {
		rec := slog.NewRecord(time.Now(), level, msg, 0)
		rec.AddAttrs(bound...)
		rec.AddAttrs(attrs...)
		_ = h.Handle(context.Background(), rec)
	}
}

// flightValue flattens a slog value for JSON-friendly flight storage.
func flightValue(v slog.Value) any {
	switch v.Kind() {
	case slog.KindInt64:
		return v.Int64()
	case slog.KindUint64:
		return v.Uint64()
	case slog.KindFloat64:
		return v.Float64()
	case slog.KindBool:
		return v.Bool()
	case slog.KindString:
		return v.String()
	case slog.KindDuration:
		return v.Duration().String()
	default:
		return fmt.Sprint(v.Any())
	}
}

// argsToAttrs converts alternating key/value arguments to attrs, slog
// style: a non-string key (a malformed call) becomes "!BADKEY", a
// trailing key with no value gets a "(MISSING)" marker.
func argsToAttrs(kv []any) []slog.Attr {
	if len(kv) == 0 {
		return nil
	}
	attrs := make([]slog.Attr, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = "!BADKEY"
		}
		var val any = "(MISSING)"
		if i+1 < len(kv) {
			val = kv[i+1]
		}
		attrs = append(attrs, slog.Any(key, val))
	}
	return attrs
}

// defaultLogger is the process-wide logger instrumentation sites use via
// L(). The zero default has no output writer but still feeds the flight
// recorder.
var defaultLogger atomic.Pointer[Logger]

// SetDefaultLogger installs the process-wide logger (nil restores the
// output-less default).
func SetDefaultLogger(l *Logger) { defaultLogger.Store(l) }

// L returns the process-wide logger. Never nil-dereferences: with no
// logger installed it returns nil, and every Logger method is nil-safe
// (flight recording still happens on the nil logger).
func L() *Logger { return defaultLogger.Load() }

// NewRunID returns a short unique id correlating the structured-log
// events of one training run. Generated here (not in boost) so the
// deterministic core packages stay free of clock reads.
func NewRunID() string {
	return strconv.FormatUint(uint64(time.Now().UnixNano())^uint64(os.Getpid())<<32, 36)
}
