// Package telemetry is the deterministic observability layer: a typed
// event stream recorded by the simulator at every architectural
// decision point (transaction begin/commit/abort, NACKs, value
// repairs, predictor training), plus the counter/histogram registry
// snapshotted into results.
//
// The contract mirrors the simulator's own: for a fixed (workload,
// params, seed) the recorded event stream is byte-identical across
// schedulers and sweep worker counts, and recording is strictly
// zero-alloc on the hot path — events buffer into a pre-sized ring
// owned by the machine and flush in batches. When no recorder is
// attached the cost is one nil check per decision point.
package telemetry

import "fmt"

// Kind identifies which architectural decision an Event records.
type Kind uint8

const (
	KindNone    Kind = iota
	KindBegin        // tx begin: Tx=timestamp, A=pc
	KindCommit       // tx commit: Tx=timestamp, A=lifetime cycles
	KindAbort        // tx abort: Cause set, A=attempt, Block=blamed block (-1 if none), B=restart pc, C=wasted cycles
	KindNack         // access nacked: Block, A=holder core
	KindRelease      // symbolic release: Core=victim, Block, A=thief core
	KindViolate      // constraint violated at commit: Block=word, A=root value, B=interval lo, C=interval hi
	KindReject       // unfoldable constraint: A=opcode, Block=root word
	KindRepair       // value repair at commit: A=blocks tracked, B=blocks lost, C=stores, D=constraint addrs, E=repair cycles
	KindTrack        // value tracking begins on a block: Block, Tx=timestamp
	KindTrain        // predictor trained: Block, A=+1 (conflict observed) or -1 (violation observed)
	NumKinds
)

var kindNames = [NumKinds]string{
	"none", "begin", "commit", "abort", "nack", "release",
	"violate", "reject", "repair", "track", "train",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "invalid"
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return KindNone, false
}

// Cause is the abort-cause taxonomy. Only KindAbort events carry a
// non-zero cause; every abort carries exactly one.
type Cause uint8

const (
	CauseNone                 Cause = iota
	CauseConflict                   // coherence conflict decided against this tx
	CauseConstraintViolation        // a folded constraint failed at commit time
	CauseUnfoldableConstraint       // a branch constraint could not be folded into an interval
	CauseStructOverflow             // RetCon tracking structures (IVB/SSB/constraint table) overflowed
	CauseSpecOverflow               // speculative read/write set overflowed
	NumCauses
)

var causeNames = [NumCauses]string{
	"none", "conflict", "violation", "unfoldable", "struct-overflow", "spec-overflow",
}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "invalid"
}

// CauseFromString inverts Cause.String; ok is false for unknown names.
func CauseFromString(s string) (Cause, bool) {
	for c, name := range causeNames {
		if name == s {
			return Cause(c), true
		}
	}
	return CauseNone, false
}

// An Event is one recorded decision. The payload slots A..E are
// per-kind (see the Kind constants); unused slots are zero. Events are
// plain values — emitting one never allocates.
type Event struct {
	Cycle int64 // simulated cycle the decision happened at
	Tx    int64 // transaction timestamp, where meaningful
	Block int64 // block or word address, where meaningful (-1 if none)
	A     int64
	B     int64
	C     int64
	D     int64
	E     int64
	Core  int32 // core the event is attributed to
	Kind  Kind
	Cause Cause
}

// String renders the event on one line: time, core and kind, the cause
// on aborts, then every payload slot.
func (e Event) String() string {
	s := fmt.Sprintf("t=%d core=%d %s", e.Cycle, e.Core, e.Kind)
	if e.Kind == KindAbort {
		s += fmt.Sprintf(" cause=%s", e.Cause)
	}
	return s + fmt.Sprintf(" tx=%d block=%#x a=%d b=%d c=%d d=%d e=%d", e.Tx, e.Block, e.A, e.B, e.C, e.D, e.E)
}
