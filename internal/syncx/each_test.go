package syncx

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test at GOMAXPROCS procs, so the worker count does
// not depend on the host's cores.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// settleGoroutines waits until no more than want goroutines run: a
// joined worker has called Done but may not have exited yet.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Each, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			const n = 1000
			var runs [n]atomic.Int32
			if err := Each(n, func(i int) error {
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times, want 1", i, got)
				}
			}
		})
	}
}

func TestEachReturnsLowestIndexError(t *testing.T) {
	withProcs(t, 4)
	for trial := 0; trial < 50; trial++ {
		err := Each(200, func(i int) error {
			if i%37 == 11 { // 11, 48, 85, ...
				if i == 11 {
					// The lowest failure finishes last: the other workers
					// meet 48 first.
					time.Sleep(2 * time.Millisecond)
				}
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 11" {
			t.Fatalf("trial %d: err = %v, want index 11", trial, err)
		}
	}
}

func TestEachStopsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	t.Run("one worker", func(t *testing.T) {
		withProcs(t, 1)
		var ran []int
		err := Each(10, func(i int) error {
			ran = append(ran, i)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || len(ran) != 4 {
			t.Fatalf("err = %v, ran %v; want boom after indices 0..3", err, ran)
		}
	})
	t.Run("four workers", func(t *testing.T) {
		withProcs(t, 4)
		const n = 200
		var ran atomic.Int32
		err := Each(n, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		// Each worker may start one index before it sees the failure; it
		// must not run through the rest.
		if !errors.Is(err, boom) || ran.Load() >= n/4 {
			t.Fatalf("err = %v, %d of %d indices ran after index 0 failed", err, ran.Load(), n)
		}
	})
}

func TestEachSmallN(t *testing.T) {
	withProcs(t, 8)
	called := false
	for _, n := range []int{0, -1} {
		if err := Each(n, func(int) error { called = true; return nil }); err != nil || called {
			t.Fatalf("n=%d: err = %v, fn called %v; want nil and no call", n, err, called)
		}
	}
	// Fewer items than workers: each runs once, on no more than n workers.
	var runs [3]atomic.Int32
	if err := Each(len(runs), func(i int) error {
		runs[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, got)
		}
	}
}

// TestEachJoinsEveryWorker pins that no fn is running, and none starts,
// once Each has returned, on success and on failure, and that no worker
// goroutine outlives the call.
func TestEachJoinsEveryWorker(t *testing.T) {
	withProcs(t, 4)
	before := runtime.NumGoroutine()
	for _, failAt := range []int{-1, 5} {
		var running, calls atomic.Int32
		err := Each(64, func(i int) error {
			running.Add(1)
			defer running.Add(-1)
			calls.Add(1)
			time.Sleep(100 * time.Microsecond)
			if i == failAt {
				return errors.New("fail")
			}
			return nil
		})
		if (err != nil) != (failAt >= 0) {
			t.Fatalf("failAt %d: err = %v", failAt, err)
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("failAt %d: %d calls still running after Each returned", failAt, r)
		}
		settled := calls.Load()
		time.Sleep(5 * time.Millisecond)
		if c := calls.Load(); c != settled {
			t.Fatalf("failAt %d: %d calls started after Each returned", failAt, c-settled)
		}
	}
	settleGoroutines(t, before)
}
