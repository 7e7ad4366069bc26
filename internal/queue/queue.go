// Package queue is the in-process worker-pool primitive the harness fans
// per-application analysis across (the job-based work-queue surface itself
// lives in internal/dispatch). Items run on a bounded pool and results keep
// their input order, so table rows come out deterministic.
package queue

import "sync"

// Map runs f over every item on at most workers goroutines and returns the
// results in input order. workers < 1 means one worker.
func Map[T, R any](workers int, items []T, f func(T) R) []R {
	if workers < 1 {
		workers = 1
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = f(items[i])
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
