package sweep

import "sync/atomic"

// Progress is the engine's externally observable completion state: a
// set of atomic counters the engine increments while a reporter
// goroutine (outside this package — the deterministic packages launch
// no goroutines and read no clocks) polls and renders. Counters only
// grow; Total is added to before dispatch, so Done == Total means the
// grid (including journal replays) has fully drained.
type Progress struct {
	// Total is the number of unique runs the engine will execute or
	// replay (added to at dispatch time; accumulates across grids that
	// share one Progress).
	Total atomic.Int64
	// Done counts runs resolved: succeeded, failed or replayed from the
	// journal. Skipped (interrupted) runs are not counted.
	Done atomic.Int64
	// Failed counts the subset of Done that resolved with an error.
	Failed atomic.Int64
}

// progressDone marks one run resolved with the given final error.
func (e *Engine) progressDone(err error) {
	if e.Progress == nil {
		return
	}
	e.Progress.Done.Add(1)
	if err != nil {
		e.Progress.Failed.Add(1)
	}
}
