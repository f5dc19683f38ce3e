package grow

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLeafwiseOrdersByGain(t *testing.T) {
	q := NewQueue(Leafwise)
	q.Push(Candidate{NodeID: 1, Gain: 0.5})
	q.Push(Candidate{NodeID: 2, Gain: 2.0})
	q.Push(Candidate{NodeID: 3, Gain: 1.0})
	c, ok := q.Pop()
	if !ok || c.NodeID != 2 {
		t.Fatalf("first pop %+v", c)
	}
	c, _ = q.Pop()
	if c.NodeID != 3 {
		t.Fatalf("second pop %+v", c)
	}
	c, _ = q.Pop()
	if c.NodeID != 1 {
		t.Fatalf("third pop %+v", c)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestLeafwiseTieBreaksByInsertion(t *testing.T) {
	q := NewQueue(Leafwise)
	q.Push(Candidate{NodeID: 10, Gain: 1})
	q.Push(Candidate{NodeID: 20, Gain: 1})
	q.Push(Candidate{NodeID: 30, Gain: 1})
	for _, want := range []int32{10, 20, 30} {
		c, _ := q.Pop()
		if c.NodeID != want {
			t.Fatalf("tie-break order: got %d want %d", c.NodeID, want)
		}
	}
}

func TestDepthwiseOrdersByDepthThenFIFO(t *testing.T) {
	q := NewQueue(Depthwise)
	q.Push(Candidate{NodeID: 5, Depth: 2, Gain: 100})
	q.Push(Candidate{NodeID: 1, Depth: 1, Gain: 0.1})
	q.Push(Candidate{NodeID: 2, Depth: 1, Gain: 50})
	q.Push(Candidate{NodeID: 9, Depth: 0, Gain: 1})
	want := []int32{9, 1, 2, 5}
	for _, w := range want {
		c, ok := q.Pop()
		if !ok || c.NodeID != w {
			t.Fatalf("got %d want %d", c.NodeID, w)
		}
	}
}

func TestPopBatch(t *testing.T) {
	q := NewQueue(Leafwise)
	for i := 0; i < 10; i++ {
		q.Push(Candidate{NodeID: int32(i), Gain: float64(i)})
	}
	batch := q.PopBatch(3)
	if len(batch) != 3 {
		t.Fatalf("batch size %d", len(batch))
	}
	if batch[0].NodeID != 9 || batch[1].NodeID != 8 || batch[2].NodeID != 7 {
		t.Fatalf("batch %v", batch)
	}
	if q.Len() != 7 {
		t.Fatalf("remaining %d", q.Len())
	}
	// k <= 0 drains.
	rest := q.PopBatch(0)
	if len(rest) != 7 || q.Len() != 0 {
		t.Fatalf("drain got %d, remaining %d", len(rest), q.Len())
	}
	if got := q.PopBatch(5); got != nil {
		t.Fatalf("empty batch %v", got)
	}
}

func TestPopBatchLargerThanQueue(t *testing.T) {
	q := NewQueue(Leafwise)
	q.Push(Candidate{NodeID: 1, Gain: 1})
	batch := q.PopBatch(100)
	if len(batch) != 1 {
		t.Fatalf("batch %v", batch)
	}
}

func TestQueueHeapProperty(t *testing.T) {
	// Property: popping everything from a leafwise queue yields gains in
	// non-increasing order.
	f := func(gains []float64) bool {
		q := NewQueue(Leafwise)
		for i, g := range gains {
			if g != g { // NaN breaks ordering semantics by definition
				g = 0
			}
			q.Push(Candidate{NodeID: int32(i), Gain: g})
		}
		prev := 0.0
		first := true
		for {
			c, ok := q.Pop()
			if !ok {
				break
			}
			if !first && c.Gain > prev {
				return false
			}
			prev = c.Gain
			first = false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDepthwiseLevelsProperty(t *testing.T) {
	// Property: depthwise pops never return a deeper node before a
	// shallower one.
	f := func(depths []uint8) bool {
		q := NewQueue(Depthwise)
		for i, d := range depths {
			q.Push(Candidate{NodeID: int32(i), Depth: int32(d % 8)})
		}
		prev := int32(-1)
		for {
			c, ok := q.Pop()
			if !ok {
				return true
			}
			if c.Depth < prev {
				return false
			}
			prev = c.Depth
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMethodString(t *testing.T) {
	if Depthwise.String() != "depthwise" || Leafwise.String() != "leafwise" {
		t.Fatal("method names")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method empty string")
	}
}

func TestQueueMethod(t *testing.T) {
	if NewQueue(Depthwise).Method() != Depthwise {
		t.Fatal("method accessor")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	q := NewQueue(Leafwise)
	q.Push(Candidate{NodeID: 1, Gain: 1})
	q.Push(Candidate{NodeID: 2, Gain: 3})
	c, _ := q.Pop()
	if c.NodeID != 2 {
		t.Fatal("wrong pop")
	}
	q.Push(Candidate{NodeID: 3, Gain: 2})
	q.Push(Candidate{NodeID: 4, Gain: 0.5})
	want := []int32{3, 1, 4}
	for _, w := range want {
		c, _ := q.Pop()
		if c.NodeID != w {
			t.Fatalf("got %d want %d", c.NodeID, w)
		}
	}
}

// TestBeyond: Beyond lists the candidates ranked r-th or lower, best
// first, under either policy, and leaves the queue's pop order alone.
func TestBeyond(t *testing.T) {
	for _, m := range []Method{Leafwise, Depthwise} {
		q := NewQueue(m)
		for i, g := range []float64{3, 9, 1, 9, 5, 7} {
			q.Push(Candidate{NodeID: int32(i), Gain: g, Depth: int32(i % 3)})
		}
		if got := q.Beyond(q.Len()); got != nil {
			t.Fatalf("%v: Beyond(Len) = %v, want none", m, got)
		}
		var beyond []int32
		for _, c := range q.Beyond(2) {
			beyond = append(beyond, c.NodeID)
		}
		all := len(q.Beyond(0))
		var popped []int32
		for q.Len() > 0 {
			c, _ := q.Pop()
			popped = append(popped, c.NodeID)
		}
		if all != len(popped) || fmt.Sprint(beyond) != fmt.Sprint(popped[2:]) {
			t.Errorf("%v: Beyond(2) = %v, Beyond(0) has %d; pops after the first two: %v", m, beyond, all, popped[2:])
		}
	}
}
