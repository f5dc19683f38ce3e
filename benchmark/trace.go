package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module. Spans of one
// boosting round or one request share a trace id; Parent is the index of
// the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Trace  int64  `json:"trace_id"`
}

// tracer keeps spans and boundary counts in memory until the run ends.
// A nil *tracer records nothing, so the untraced run pays one nil check
// per call site and installs no wrapper at all where a wrapper would sit
// on the measured path.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, trace int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Trace: trace})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records a closed span under parent that starts offset into the
// parent and ends with it.
func (t *tracer) child(name string, parent int32, offset time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Start: p.Start + offset.Nanoseconds(), End: p.End, Parent: parent, Trace: p.Trace})
	t.mu.Unlock()
}

// count adds n to a boundary counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// durations returns the length of every closed span called name, in
// milliseconds, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, for every closed span called name, its duration
// minus the part its direct children cover, in milliseconds.
func (t *tracer) selfTimes(name string) []float64 {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start-child[int32(i)])/1e6)
		}
	}
	return out
}

// write stores the spans and counts under dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Counts   map[string]int64 `json:"counts"`
		Spans    []span           `json:"spans"`
	}{workload, t.counts, t.spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
