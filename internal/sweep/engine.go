package sweep

import (
	"runtime"
	"time"

	"repro/internal/sim"
)

// Engine executes expanded runs across a bounded pool of worker
// goroutines, with fault isolation around every run: panics become
// structured Outcome errors, hung runs are abandoned on a wall-clock
// deadline, possibly-transient failures retry deterministically, and a
// journal makes an interrupted sweep resumable. The zero value is ready
// to use: GOMAXPROCS workers, the real simulator, and every resilience
// feature off. An Engine is the whole description of how a grid
// executes: retcon-sweep and retcon-lab build one from the same flags
// (internal/progress.Flags), and lab.Run executes the one it is given.
type Engine struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Tasks overrides run execution at the attempt level, seeing the
	// attempt number and the machine-ownership handle (fault injection:
	// internal/chaos; fakes in tests); nil means the simulator.
	Tasks TaskFunc
	// Deadline bounds each attempt's wall-clock time; an attempt that
	// exceeds it is abandoned and fails with FailDeadline. <= 0 disables.
	Deadline time.Duration
	// Retries grants possibly-transient failures up to this many further
	// attempts (deterministic failures — watchdog, oracle divergence —
	// never retry). 0 disables retry.
	Retries int
	// RetryBackoff is the base wall-clock pause between attempts
	// (jittered into [base, 2*base)); <= 0 means 25ms.
	RetryBackoff time.Duration
	// Journal, when non-nil, memoizes outcomes: runs already journaled
	// are replayed instead of executed, and completed runs are appended.
	// See Journal for the crash-safety and resume contract.
	Journal *Journal
	// Stop, when non-nil, checkpoints the sweep once closed: in-flight
	// runs drain normally (and are journaled), runs not yet started
	// resolve to ErrInterrupted outcomes without executing.
	Stop <-chan struct{}
	// Progress, when non-nil, receives atomic completion counters as the
	// sweep executes, for an external reporter goroutine to poll (the
	// CLIs' -progress flag). The engine only ever increments counters —
	// rendering, timing and ETA math stay outside the deterministic
	// packages.
	Progress *Progress
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) taskFunc() TaskFunc {
	if e.Tasks != nil {
		return e.Tasks
	}
	return defaultRunner
}

// Execute runs the grid and returns one outcome per input run, in input
// order. Duplicate configurations are simulated once and share a result.
// Per-run failures are reported in Outcome.Err, not returned here.
func (e *Engine) Execute(runs []Run) []Outcome {
	out := make([]Outcome, 0, len(runs))
	e.ExecuteStream(runs, func(o Outcome) { out = append(out, o) })
	return out
}

// ExecuteStream runs the grid, invoking emit once per input run in input
// order (NOT completion order) as soon as each run's ordered prefix has
// completed. Emission order is therefore deterministic for any pool size,
// so streamed JSONL/CSV files are byte-stable. emit is called from the
// calling goroutine's perspective serially (one invocation at a time).
func (e *Engine) ExecuteStream(runs []Run, emit func(Outcome)) {
	if len(runs) == 0 {
		return
	}

	// Deduplicate: unique configurations to execute, and for every input
	// run the index of its unique representative.
	uniq := make([]Run, 0, len(runs))
	repr := make([]int, len(runs))
	index := make(map[key]int, len(runs))
	for i, r := range runs {
		k := r.key()
		u, ok := index[k]
		if !ok {
			u = len(uniq)
			index[k] = u
			uniq = append(uniq, r)
		}
		repr[i] = u
	}

	type slot struct {
		res *sim.Result
		err error
	}
	fn := e.taskFunc()
	if e.Progress != nil {
		e.Progress.Total.Add(int64(len(uniq)))
	}
	exec := func(i int) slot {
		r := uniq[i]
		if e.Journal != nil {
			if res, err, ok := e.Journal.Lookup(r); ok {
				e.progressDone(err)
				return slot{res, err}
			}
		}
		res, err := e.guardedRun(fn, r)
		if e.Journal != nil {
			if jerr := e.Journal.Record(r, res, err); jerr != nil && err == nil {
				// A journal that cannot record makes resume lie; fail the
				// run loudly rather than silently losing its record.
				res, err = nil, jerr
			}
		}
		e.progressDone(err)
		return slot{res, err}
	}
	skip := func(int) slot { return slot{nil, ErrInterrupted} }
	get, wait := DispatchStop(len(uniq), e.workers(), exec, e.Stop, skip)

	// Emit in input order, blocking on each run's representative.
	for i, r := range runs {
		s := get(repr[i])
		emit(Outcome{Run: r, Res: s.res, Err: s.err})
	}
	wait()
}

// FirstErr returns the first per-run error in the outcomes, if any.
func FirstErr(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}
