// Package profile provides the training-time instrumentation the paper
// gathers with Intel VTune: per-phase wall-time breakdowns
// (BuildHist / FindSplit / ApplySplit, Fig. 4), and run reports combining
// them with the scheduler's utilization and barrier-overhead analogs
// (Tables I and VI). It also provides the plain-text table renderer used by
// cmd/experiments to print paper-style tables.
package profile

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"harpgbdt/internal/perf"
	"harpgbdt/internal/sched"
)

// Phase is the repo's one phase enum, owned by perf (a leaf package the
// scheduler can import); the names below are the training phases a
// Breakdown tracks.
type Phase = perf.Phase

// The tracked phases. Other covers queue maintenance, gradient prep and
// everything else outside the three core functions. perf.PhasePredict lies
// past numPhases: a Breakdown has no inference row.
const (
	BuildHist  = perf.PhaseBuildHist
	FindSplit  = perf.PhaseFindSplit
	ApplySplit = perf.PhaseApplySplit
	Other      = perf.PhaseOther
	numPhases  = Other + 1
)

// Breakdown accumulates time per phase. Adds are atomic so concurrent
// workers (ASYNC mode) can record into one breakdown; in barrier-structured
// modes the engine records region wall time instead.
type Breakdown struct {
	nanos  [numPhases]int64
	counts [numPhases]int64
}

// Add records d spent in phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) {
	atomic.AddInt64(&b.nanos[p], d.Nanoseconds())
	atomic.AddInt64(&b.counts[p], 1)
}

// Time runs fn and records its duration under phase p.
func (b *Breakdown) Time(p Phase, fn func()) {
	start := time.Now()
	fn()
	b.Add(p, time.Since(start))
}

// Nanos returns the accumulated nanoseconds of phase p.
func (b *Breakdown) Nanos(p Phase) int64 { return atomic.LoadInt64(&b.nanos[p]) }

// Count returns how many intervals were recorded for phase p.
func (b *Breakdown) Count(p Phase) int64 { return atomic.LoadInt64(&b.counts[p]) }

// Total returns the sum over all phases.
func (b *Breakdown) Total() int64 {
	var t int64
	for p := Phase(0); p < numPhases; p++ {
		t += b.Nanos(p)
	}
	return t
}

// Merge adds o into b.
func (b *Breakdown) Merge(o *Breakdown) {
	for p := Phase(0); p < numPhases; p++ {
		atomic.AddInt64(&b.nanos[p], o.Nanos(p))
		atomic.AddInt64(&b.counts[p], o.Count(p))
	}
}

// Reset zeroes the breakdown.
func (b *Breakdown) Reset() {
	for p := Phase(0); p < numPhases; p++ {
		atomic.StoreInt64(&b.nanos[p], 0)
		atomic.StoreInt64(&b.counts[p], 0)
	}
}

// Fraction returns phase p's share of the total (0 when nothing recorded).
func (b *Breakdown) Fraction(p Phase) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Nanos(p)) / float64(t)
}

// String summarizes the breakdown.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for p := Phase(0); p < numPhases; p++ {
		if p > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%v(%.0f%%)", p, time.Duration(b.Nanos(p)), 100*b.Fraction(p))
	}
	return sb.String()
}

// Report is the per-run profiling record: the software analog of the
// paper's VTune tables.
type Report struct {
	Trainer   string
	Workers   int
	Elapsed   time.Duration
	Breakdown *Breakdown
	Sched     sched.Stats
	// Trees/Leaves/Depth summarize the built model.
	Trees     int
	Leaves    int
	MaxDepth  int
	HistAlloc int
}

// Utilization is the software CPU-utilization analog.
func (r Report) Utilization() float64 { return r.Sched.Utilization(r.Workers) }

// BarrierOverhead is the software OpenMP-barrier-overhead analog.
func (r Report) BarrierOverhead() float64 { return r.Sched.BarrierOverhead() }

// String formats the report like a row of Table I / Table VI.
func (r Report) String() string {
	return fmt.Sprintf("%s: elapsed=%v util=%.1f%% barrier=%.1f%% regions=%d tasks=%d [%s]",
		r.Trainer, r.Elapsed, 100*r.Utilization(), 100*r.BarrierOverhead(),
		r.Sched.Regions, r.Sched.Tasks, r.Breakdown)
}
