// Package par runs data-parallel work addressed by index. It is the one
// place the virtual-time packages start goroutines for such work and read
// GOMAXPROCS: a caller writes item i's output into slot i, so the result
// cannot depend on the worker count or on goroutine scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on at most min(workers, n)
// goroutines; workers ≤ 0 selects GOMAXPROCS. One worker runs the loop on
// the caller's goroutine. Indices are handed out in increasing order, and a
// worker takes no new index once it has seen a call fail (one that checked
// just before the failure may still run one more). For returns the error
// of the lowest failing index: the error a serial loop would return, since
// every index below the first failure was taken before it and a taken
// index always runs. A caller that can be cancelled checks its context
// inside fn.
func For(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		lowest = n
		first  error
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < lowest {
						lowest, first = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
