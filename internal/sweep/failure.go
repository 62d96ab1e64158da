package sweep

import (
	"errors"

	"repro/internal/sim"
)

// FailKind classifies a failed run. The classification drives two
// consumers: the run journal (a replayed failure must reconstruct the
// same kind), and the lab's anomaly report (which labels infra anomalies
// by kind instead of sniffing message substrings).
type FailKind int

const (
	// FailNone is the classification of a nil error.
	FailNone FailKind = iota
	// FailError is an unclassified failure (an unknown workload, an
	// unbuildable machine, a journal write error).
	FailError
	// FailPanic is a run that panicked and was converted into a
	// structured error by the engine's recovery wrapper.
	FailPanic
	// FailWatchdog is a simulated-cycle watchdog expiry
	// (*sim.WatchdogError): a deterministic property of the
	// configuration.
	FailWatchdog
	// FailDeadline is a wall-clock deadline abandon: the run exceeded
	// Engine.Deadline and was written off.
	FailDeadline
	// FailOracle is an oracle divergence: the workload's final-state
	// verification failed, or (in the lab) the lockstep differential
	// oracle disagreed.
	FailOracle
	// FailInterrupted marks a run that never started because the sweep
	// was checkpointed (Engine.Stop closed). Not a failure of the run;
	// never journaled, never written to sinks.
	FailInterrupted
)

// String returns the kind's stable journal label.
func (k FailKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailError:
		return "error"
	case FailPanic:
		return "panic"
	case FailWatchdog:
		return "watchdog"
	case FailDeadline:
		return "deadline"
	case FailOracle:
		return "oracle-divergence"
	case FailInterrupted:
		return "interrupted"
	}
	return "error"
}

// parseFailKind inverts String. Unknown labels (a journal written by a
// newer version) degrade to FailError.
func parseFailKind(s string) FailKind {
	for _, k := range []FailKind{FailNone, FailError, FailPanic, FailWatchdog, FailDeadline, FailOracle, FailInterrupted} {
		if k.String() == s {
			return k
		}
	}
	return FailError
}

// RunError is the structured error the engine attaches to failed
// Outcomes. Error() returns Msg verbatim: the message is rendered once,
// deterministically, when the failure happens, so journal replay and
// re-renders stay byte-identical. The panic stack (when Kind is
// FailPanic) is carried separately for diagnostics and deliberately kept
// out of Error() — stack traces embed goroutine IDs and addresses, which
// would break byte-identical output across pool sizes.
type RunError struct {
	Kind  FailKind
	Msg   string
	Stack []byte
}

func (e *RunError) Error() string { return e.Msg }

// ErrInterrupted is the outcome error of runs that never started because
// the sweep was checkpointed.
var ErrInterrupted = &RunError{Kind: FailInterrupted, Msg: "sweep: interrupted before this run started"}

// Classify maps an outcome error to its failure kind. Structured errors
// (RunError, the simulator's WatchdogError/InterruptedError) classify
// exactly even through fmt.Errorf %w wrapping; anything else is
// FailError.
func Classify(err error) FailKind {
	if err == nil {
		return FailNone
	}
	var re *RunError
	if errors.As(err, &re) {
		return re.Kind
	}
	var we *sim.WatchdogError
	if errors.As(err, &we) {
		return FailWatchdog
	}
	var ie *sim.InterruptedError
	if errors.As(err, &ie) {
		return FailDeadline
	}
	return FailError
}
