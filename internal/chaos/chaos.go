// Package chaos is the deterministic fault-injection harness for the
// execution stack: it injects panics, hangs, transient failures and
// corrupted Results into chosen runs of a sweep grid to prove, end to
// end, that the engine's resilience layer (internal/sweep: panic
// isolation, machine quarantine, wall-clock deadlines, deterministic
// retry, journal resume) actually holds under fire.
//
// Determinism contract: faults are keyed by run identity (workload,
// seed, mode, cores) — never by execution order — and every fault's
// observable effect (the panic value, the transient error text, the
// corrupted field) is a pure function of that identity. A chaos grid is
// therefore exactly as deterministic as a clean one: the same faults
// fire in the same runs for any worker count, scheduler, or resume
// point, which is what lets the chaos tests demand byte-identical
// output across -workers 1/8 and across kill-and-resume.
//
// The package is deliberately OUTSIDE retcon-lint's deterministic set:
// it exists to violate the invariants those analyzers protect.
package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Panic panics in the task runner before the machine is acquired —
	// the "poisoned grid point" the engine's recovery wrapper must
	// convert into one FailPanic outcome.
	Panic Kind = iota
	// SchedPanic installs a scheduler that panics mid-run, after the
	// machine has simulated PanicAfter cycles — a panic that unwinds
	// from inside machine.Run with the machine in an arbitrary state,
	// exercising the quarantine rule.
	SchedPanic
	// Hang blocks the run mid-simulation, inside a commit observer,
	// until Gate is closed — a hard hang that only the engine's
	// wall-clock deadline can abandon (the cooperative interrupt cannot
	// unwind a blocked observer).
	Hang
	// Transient fails the run's first FailAttempts attempts with a
	// retryable error, then lets it succeed — the retry path's
	// transient-then-success case.
	Transient
	// CorruptResult lets the run complete and then flips its cycle
	// count — the silent corruption the lab's lockstep differential
	// oracle exists to catch.
	CorruptResult
)

// Fault is one injected failure.
type Fault struct {
	Kind Kind
	// FailAttempts (Transient) is how many leading attempts fail.
	FailAttempts int
	// PanicAfter (SchedPanic) is the simulated cycle to panic at.
	PanicAfter int64
	// Gate (Hang) unblocks the hung run when closed. The test owns the
	// gate and closes it after the grid completes, releasing the
	// abandoned goroutine.
	Gate <-chan struct{}
}

// Target identifies the grid point a fault applies to: the run-identity
// fields a chaos plan keys on. The Spec label and the non-axis machine
// parameters are deliberately excluded — chaos targets what the grid
// varies.
type Target struct {
	Workload string
	Seed     int64
	Mode     sim.Mode
	Cores    int
}

// TargetOf extracts a run's chaos target.
func TargetOf(r sweep.Run) Target {
	return Target{Workload: r.Workload, Seed: r.Seed, Mode: r.Params.Mode, Cores: r.Params.Cores}
}

// Plan maps targets to faults. Build it up front with Add (or Pick),
// then install Runner as the engine's Tasks; the plan is read-only while
// the engine runs, so it is safe across workers.
type Plan struct {
	faults map[Target]Fault
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{faults: make(map[Target]Fault)} }

// Add injects a fault at the target.
func (p *Plan) Add(t Target, f Fault) { p.faults[t] = f }

// Fault returns the fault planned for a run, if any.
func (p *Plan) Fault(r sweep.Run) (Fault, bool) {
	f, ok := p.faults[TargetOf(r)]
	return f, ok
}

// Pick deterministically selects n distinct targets from the expanded
// runs using the seeded shuffle alone — "chosen run indices" without any
// dependence on execution order. The same (runs, seed, n) always yields
// the same targets.
func Pick(runs []sweep.Run, seed int64, n int) []Target {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(runs))
	seen := make(map[Target]bool, n)
	var out []Target
	for _, i := range perm {
		t := TargetOf(runs[i])
		if seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
		if len(out) == n {
			break
		}
	}
	return out
}

// Runner wraps the simulator task runner with the plan's faults:
// pre-machine faults (Panic, Hang-free Transient) fire here, mid-run
// faults (SchedPanic, Hang) are installed on the machine via the
// SimRunner instrument hook, and CorruptResult mutates the completed
// Result on the way out.
func (p *Plan) Runner() sweep.TaskFunc {
	inner := sweep.SimRunner(p.instrument)
	return func(t sweep.Task) (*sim.Result, error) {
		f, ok := p.Fault(t.Run)
		if ok {
			switch f.Kind {
			case Panic:
				panic(fmt.Sprintf("chaos: injected panic in %s seed %d", t.Run.Workload, t.Run.Seed))
			case Transient:
				if t.Attempt < f.FailAttempts {
					return nil, fmt.Errorf("chaos: injected transient fault in %s seed %d (attempt %d)",
						t.Run.Workload, t.Run.Seed, t.Attempt)
				}
			}
		}
		res, err := inner(t)
		if ok && f.Kind == CorruptResult && err == nil {
			res.Cycles++
		}
		return res, err
	}
}

// instrument installs the mid-run faults on the run's machine.
func (p *Plan) instrument(r sweep.Run, m *sim.Machine) {
	f, ok := p.Fault(r)
	if !ok {
		return
	}
	switch f.Kind {
	case SchedPanic:
		m.SetScheduler(&PanicScheduler{After: f.PanicAfter})
	case Hang:
		gate := f.Gate
		m.OnCommit(func(*sim.Machine, *sim.Core) error {
			<-gate
			return nil
		})
	}
}

// PanicScheduler drives the lockstep Step loop and panics once the
// machine reaches cycle After — a deterministic stand-in for a scheduler
// bug blowing up from inside machine.Run. The panic message depends only
// on simulated state, so it renders identically on every execution.
type PanicScheduler struct{ After int64 }

// Run steps until the panic cycle (or halts first, if After is beyond
// the run).
func (s *PanicScheduler) Run(m *sim.Machine) error {
	for !m.AllHalted() {
		if m.Now >= s.After {
			panic(fmt.Sprintf("chaos: injected scheduler panic at cycle %d", m.Now))
		}
		m.Step()
	}
	return nil
}

// panicWorkload is a workload whose Build panics — the "panicking
// workload factory" failure path: the panic fires inside the task
// runner before any machine exists.
type panicWorkload struct{ name string }

func (w panicWorkload) Name() string        { return w.name }
func (w panicWorkload) Description() string { return "chaos: Build panics unconditionally" }
func (w panicWorkload) Build(threads int, seed int64) *workloads.Bundle {
	panic(fmt.Sprintf("chaos: workload factory %s panicked (threads=%d seed=%d)", w.name, threads, seed))
}

// RegisterPanicWorkload registers (idempotently) and returns the name of
// a workload whose factory panics on Build.
func RegisterPanicWorkload(name string) string {
	workloads.Register(func() workloads.Workload { return panicWorkload{name: name} })
	return name
}
