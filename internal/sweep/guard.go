package sweep

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/sim"
)

// Task is one run, handed to a TaskFunc.
type Task struct {
	Run Run
	// OnMachine is the deadline watchdog's machine-ownership handle.
	// A machine-running TaskFunc must call it (when non-nil) with the
	// machine after acquiring it and with nil when done with it — BEFORE
	// the machine is pooled or discarded. While registered, a deadline
	// abandon interrupts exactly this machine; the nil call transfers
	// ownership back, making a belated abandon a no-op. Skipping the nil
	// call would let an abandon fire into the machine's NEXT run after
	// pool reuse, spuriously failing an innocent grid point — the hazard
	// TestAbandonAfterReleaseIsNoOp pins down.
	OnMachine func(*sim.Machine)
}

// TaskFunc executes one run. The engine's default is the simulator
// (SimRunner(nil)); internal/chaos substitutes a fault-injecting wrapper,
// and tests substitute fakes that read only t.Run.
type TaskFunc func(Task) (*sim.Result, error)

// ticket tracks which machine a running task currently owns so that a
// wall-clock abandon can interrupt that machine and nothing else. The
// mutex orders the three events that race on abandon: register (the
// runner acquired a machine), release (the runner is done with it), and
// abandon (the deadline expired). An abandon before register interrupts
// the machine the moment it is registered; an abandon after release is a
// no-op, because ownership already moved on.
type ticket struct {
	mu        sync.Mutex
	m         *sim.Machine
	abandoned bool
}

// set registers (non-nil) or releases (nil) the task's machine.
func (t *ticket) set(m *sim.Machine) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m != nil && t.abandoned {
		m.Interrupt()
	}
	t.m = m
}

// abandon marks the task written off and interrupts its registered
// machine, if any.
func (t *ticket) abandon() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.abandoned = true
	if t.m != nil {
		t.m.Interrupt()
	}
}

// safeCall invokes the task runner with panic isolation: a panicking run
// becomes a structured *RunError instead of taking down the worker pool
// and the rest of the grid. This is the one sanctioned recover() in the
// deterministic packages: the panic value renders deterministically into
// Msg, while the stack — which embeds goroutine IDs and addresses — is
// kept on the RunError for diagnostics only, never in Error(), so
// Records stay byte-identical across pool sizes and journal replays.
func safeCall(fn TaskFunc, t Task) (res *sim.Result, err error) {
	defer func() {
		//lint:recover-ok the engine's panic-isolation boundary; panics become structured FailPanic Outcome errors, stack kept out of Error() for determinism
		if p := recover(); p != nil {
			res = nil
			err = &RunError{
				Kind: FailPanic,
				Msg: fmt.Sprintf("sweep: %s (%v, %d cores, seed %d): panic: %v",
					t.Run.Workload, t.Run.Params.Mode, t.Run.Params.Cores, t.Run.Seed, p),
				Stack: debug.Stack(),
			}
		}
	}()
	return fn(t)
}

// abandonGrace is how long an abandoned run gets to honor the
// cooperative interrupt before its goroutine is written off. A machine
// inside its cycle loop unwinds in microseconds; only a hard hang (a
// blocked commit observer, a task that never reaches the machine) runs
// out the grace, and that goroutine — plus its quarantined machine — is
// forfeited to the runtime rather than blocking the sweep.
const abandonGrace = 250 * time.Millisecond

// guardedRun executes one run with panic isolation and, when the engine
// has a deadline, wall-clock abandonment.
func (e *Engine) guardedRun(fn TaskFunc, r Run) (*sim.Result, error) {
	tk := &ticket{}
	task := Task{Run: r, OnMachine: tk.set}
	if e.Deadline <= 0 {
		return safeCall(fn, task)
	}
	type result struct {
		res *sim.Result
		err error
	}
	ch := make(chan result, 1)
	// The goroutine exists only to bound the run with a wall-clock
	// deadline; exactly one deterministic reader consumes (or, on
	// abandon, deterministically discards) its result.
	//lint:nondet-safe deadline-bounded run; its result is consumed or discarded by the one caller, never reordered
	go func() {
		res, err := safeCall(fn, task)
		ch <- result{res, err}
	}()
	//lint:nondet-safe wall-clock deadline complements the simulated-cycle watchdog; elapsed time never reaches a Result
	timer := time.NewTimer(e.Deadline)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timer.C:
	}
	// Deadline expired: interrupt the run's machine (a cooperative
	// scheduler unwinds within microseconds) and give it a short grace;
	// a hard hang forfeits the goroutine, whose machine is quarantined
	// by the runner's discard-on-error exit either way.
	tk.abandon()
	//lint:nondet-safe bounded grace wait for the abandoned run's cooperative exit; wall clock only
	grace := time.NewTimer(abandonGrace)
	defer grace.Stop()
	select {
	case <-ch: // cooperative exit; the abandoned run's result is discarded
	case <-grace.C: // hard hang: the goroutine is written off
	}
	return nil, &RunError{
		Kind: FailDeadline,
		Msg: fmt.Sprintf("sweep: %s (%v, %d cores, seed %d): run exceeded the %v wall-clock deadline; abandoned",
			r.Workload, r.Params.Mode, r.Params.Cores, r.Seed, e.Deadline),
	}
}
