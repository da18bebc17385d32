package syncx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs fn(i) for every i in [0, n) on min(GOMAXPROCS, n) workers,
// the caller being one of them. Workers claim indices in increasing order
// from one counter, so the work spreads evenly however uneven the items
// are. After an fn fails no worker starts a further index; every index
// below the failed one was already claimed and runs to completion. Each
// returns once every worker has stopped, with the error of the lowest
// failed index: the error a sequential loop would have stopped at. fn
// must be safe to call concurrently for distinct indices.
func Each(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 0 {
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n) // errs[i] is written only by the worker that ran i
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
