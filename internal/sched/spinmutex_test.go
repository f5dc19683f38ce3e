package sched

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSpinMutexExcludes(t *testing.T) {
	var m SpinMutex
	var wg sync.WaitGroup
	counter := 0
	const goroutines, reps = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*reps {
		t.Fatalf("counter %d, want %d", counter, goroutines*reps)
	}
}

func TestSpinStatsCountContention(t *testing.T) {
	ResetSpinStats()
	var m SpinMutex
	m.Lock()
	// Uncontended acquires must not count.
	if s := ReadSpinStats(); s.ContendedAcquires != 0 {
		t.Fatalf("uncontended Lock counted as contended: %+v", s)
	}
	acquired := make(chan struct{})
	go func() {
		m.Lock() // spins until the main goroutine unlocks
		m.Unlock()
		close(acquired)
	}()
	// Wait until the second goroutine has registered its contended attempt,
	// then release it.
	for ReadSpinStats().ContendedAcquires == 0 {
		runtime.Gosched()
	}
	m.Unlock()
	<-acquired
	s := ReadSpinStats()
	if s.ContendedAcquires < 1 {
		t.Fatalf("contended acquire not counted: %+v", s)
	}
	ResetSpinStats()
	if s := ReadSpinStats(); s.ContendedAcquires != 0 || s.Yields != 0 {
		t.Fatalf("reset did not clear stats: %+v", s)
	}
}

// TestSpinDurationRecorded: a contended acquisition must add its spin
// duration to the process-wide SpinNanos total (the SpinWait feed).
func TestSpinDurationRecorded(t *testing.T) {
	ResetSpinStats()
	var m SpinMutex
	m.Lock()
	started, acquired := make(chan struct{}), make(chan struct{})
	go func() {
		close(started)
		m.Lock() // blocks until the holder releases
		m.Unlock()
		close(acquired)
	}()
	// Hold long enough that the contender, once running, measurably
	// spins: on a loaded box a goroutine can take longer than the hold
	// to be scheduled at all.
	<-started
	time.Sleep(2 * time.Millisecond)
	m.Unlock()
	<-acquired
	s := ReadSpinStats()
	if s.ContendedAcquires == 0 {
		t.Fatal("no contended acquisition recorded")
	}
	if s.SpinNanos < (500 * time.Microsecond).Nanoseconds() {
		t.Errorf("spin nanos = %d, want >= ~2ms hold time", s.SpinNanos)
	}
	ResetSpinStats()
	if ReadSpinStats().SpinNanos != 0 {
		t.Error("ResetSpinStats kept SpinNanos")
	}
}

// TestSpinMutexFastPathAllocFree pins the uncontended Lock/Unlock pair to
// zero allocations and, implicitly, no clock reads beyond what escapes to
// the heap: the hot ASYNC sections take this path thousands of times per
// tree.
func TestSpinMutexFastPathAllocFree(t *testing.T) {
	var m SpinMutex
	if n := testing.AllocsPerRun(1000, func() {
		m.Lock()
		m.Unlock()
	}); n != 0 {
		t.Errorf("uncontended Lock/Unlock allocates %.1f per op", n)
	}
}
