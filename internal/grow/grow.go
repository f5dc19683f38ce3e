// Package grow implements the tree growth policies of Algorithm 1: a
// priority queue of splittable leaves with dedicated comparison functions.
// Depthwise pops whole levels (FIFO within a level), leafwise pops the
// single highest-gain leaf, and the paper's TopK method pops the K
// highest-gain leaves at once, exposing K-fold node-level parallelism.
package grow

import (
	"container/heap"
	"fmt"
	"sort"

	"harpgbdt/internal/invariant"
)

// Method selects the base ordering of the queue.
type Method int

const (
	// Depthwise orders candidates by depth then insertion order, so pops
	// proceed level by level regardless of gain.
	Depthwise Method = iota
	// Leafwise orders candidates by descending gain (the LightGBM policy).
	Leafwise
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Depthwise:
		return "depthwise"
	case Leafwise:
		return "leafwise"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Candidate is a splittable leaf waiting in the queue.
type Candidate struct {
	NodeID int32
	Gain   float64
	Depth  int32
	Count  int32
	seq    int64
}

// Queue is a growth-policy priority queue. It is NOT safe for concurrent
// use; the ASYNC engine wraps it in a spin mutex.
type Queue struct {
	method Method
	h      candHeap
	seq    int64
	// ranked is Beyond's buffer: the queue sorted by the policy.
	ranked candHeap
}

// NewQueue returns an empty queue with the given ordering.
func NewQueue(method Method) *Queue {
	q := &Queue{method: method}
	q.h.method = method
	return q
}

// Method returns the queue's ordering policy.
func (q *Queue) Method() Method { return q.method }

// Len returns the number of queued candidates.
func (q *Queue) Len() int { return len(q.h.items) }

// Push inserts a candidate.
func (q *Queue) Push(c Candidate) {
	c.seq = q.seq
	q.seq++
	heap.Push(&q.h, c)
}

// Pop removes and returns the best candidate per the policy.
func (q *Queue) Pop() (Candidate, bool) {
	if len(q.h.items) == 0 {
		return Candidate{}, false
	}
	return heap.Pop(&q.h).(Candidate), true
}

// PopBatch removes up to k best candidates (k <= 0 drains the queue). This
// is the TopK selection: leafwise ordering with k = 1 is standard leafwise,
// depthwise ordering with k = queue length is standard depthwise, and
// leafwise with 1 < k < len is the paper's TopK growth.
func (q *Queue) PopBatch(k int) []Candidate {
	n := len(q.h.items)
	if n == 0 {
		return nil
	}
	if k <= 0 || k > n {
		k = n
	}
	out := make([]Candidate, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, heap.Pop(&q.h).(Candidate))
	}
	if invariant.Enabled && q.method == Leafwise {
		gains := make([]float64, len(out))
		for i, c := range out {
			gains[i] = c.Gain
		}
		invariant.GainsMonotone(gains, "grow.PopBatch")
	}
	return out
}

// Beyond returns the queued candidates ranked r-th or lower, counting the
// best as 0 — the ones r more pops cannot reach, whatever is pushed in
// between, since a push never ranks a queued candidate higher — best
// first. The slice is the queue's own buffer, valid until the next call;
// the queue itself is unchanged.
func (q *Queue) Beyond(r int) []Candidate {
	if r >= len(q.h.items) {
		return nil
	}
	q.ranked.method = q.method
	q.ranked.items = append(q.ranked.items[:0], q.h.items...)
	sort.Sort(&q.ranked)
	return q.ranked.items[max(r, 0):]
}

type candHeap struct {
	method Method
	items  []Candidate
}

func (h *candHeap) Len() int { return len(h.items) }

func (h *candHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.method == Depthwise {
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		return a.seq < b.seq
	}
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.seq < b.seq
}

func (h *candHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *candHeap) Push(x any) { h.items = append(h.items, x.(Candidate)) }

func (h *candHeap) Pop() any {
	old := h.items
	n := len(old)
	c := old[n-1]
	h.items = old[:n-1]
	return c
}
