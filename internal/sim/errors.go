package sim

import (
	"fmt"
	"strings"
)

// WatchdogError reports cycle-watchdog expiry: the simulated machine ran
// to P.MaxCycles without every core halting — a deadlocked or livelocked
// configuration, which the contention policy is supposed to make
// impossible. It is a structured, machine-parseable error (cycle count
// plus per-core program counters) so failure classification and journal
// records can match on the failure itself rather than sniffing substrings
// of a rendered message. A watchdog trip is a deterministic property of
// the run: the same configuration trips at the same cycle with the same
// PCs every time.
type WatchdogError struct {
	// Cycles is the simulated cycle count at expiry (P.MaxCycles).
	Cycles int64
	// PCs holds each core's program counter at expiry, indexed by core ID
	// — the first place to look when diagnosing the stuck configuration.
	PCs []int
}

// Error renders the watchdog report. The format is fixed and fully
// determined by the struct fields (no %v of interfaces, no addresses), so
// journal replay reproduces the message byte for byte.
func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: watchdog expired after %d cycles (pc=[", e.Cycles)
	for i, pc := range e.PCs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", pc)
	}
	b.WriteString("])")
	return b.String()
}

// InterruptedError reports that Machine.Interrupt was called while the
// run was in flight: the scheduler noticed the flag at a window boundary
// and unwound. Cycles is the simulated cycle at which the interrupt was
// observed — NOT a deterministic property of the run, since the interrupt
// itself arrives on wall-clock time. Harnesses that abandon a run on a
// wall-clock deadline (internal/sweep) discard the interrupted run's
// error and report their own deterministic deadline failure; this type
// exists so they can classify the cooperative exit.
type InterruptedError struct {
	Cycles int64
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("sim: run interrupted at cycle %d", e.Cycles)
}
