package sweep

import (
	"runtime"
	"sync"
)

// Dispatch fans fn over the indices [0, n) on a bounded pool of worker
// goroutines and returns a blocking accessor: get(i) waits until item i
// has been computed and returns its result (repeat calls are cheap), and
// wait blocks until every worker has exited. workers <= 0 means
// runtime.GOMAXPROCS(0).
//
// This is the engine's pool, factored out so other grid-shaped harnesses
// (cmd/retcon-fuzz's seed ranges, for one) reuse the same ordered-
// delivery machinery: results are produced concurrently but can be
// consumed in any deterministic order the caller chooses, typically
// input order for byte-stable streamed output.
func Dispatch[T any](n, workers int, fn func(int) T) (get func(int) T, wait func()) {
	return DispatchStop(n, workers, fn, nil, nil)
}

// DispatchStop is Dispatch with checkpointing: once stop is closed, no
// further index is issued — every not-yet-started index resolves
// immediately to skip(i) instead of fn(i), while indices already in
// flight complete normally. stop may be nil (never fires); skip may be
// nil only when stop is.
func DispatchStop[T any](n, workers int, fn func(int) T, stop <-chan struct{}, skip func(int) T) (get func(int) T, wait func()) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = max(n, 1)
	}
	results := make([]T, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Each item i is a pure function of i and results are consumed in
		// caller-chosen deterministic order via get(i).
		//lint:nondet-safe bounded worker pool computing pure per-index results
		go func() {
			defer wg.Done()
			for i := range next {
				// The feeder's select picks at random between a closed
				// stop and an idle worker, so an index can still arrive
				// after stop has closed; it has not started, so skip it.
				select {
				case <-stop:
					results[i] = skip(i)
				default:
					results[i] = fn(i)
				}
				close(done[i])
			}
		}()
	}
	// A closed stop truncates the issued sequence to a prefix of 0..n-1;
	// which prefix depends on timing, but every skipped index resolves
	// deterministically via skip, and a journal-resumed re-execution
	// restores the byte-identical full output.
	//lint:nondet-safe feeder goroutine; emits indices in fixed 0..n-1 order
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-stop:
				for j := i; j < n; j++ {
					results[j] = skip(j)
					close(done[j])
				}
				return
			}
		}
	}()
	get = func(i int) T {
		<-done[i]
		return results[i]
	}
	return get, wg.Wait
}
