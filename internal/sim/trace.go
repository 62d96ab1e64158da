package sim

import "repro/internal/telemetry"

// Record attaches a structured event recorder for the next Run: every
// architectural decision (begin, commit, abort with cause, NACK wait,
// symbolic release, constraint violation/reject, repair, tracking and
// predictor-training decisions) is emitted as a typed telemetry.Event.
// Events carry exact timestamps under every scheduler: the event-driven
// scheduler skips idle cycles and parks NACKed cores, but records each
// decision at the same Now the lockstep oracle would. A NACK wait is one
// event at the cycle it ends, carrying its NACK count, so skipping its
// retries skips nothing recorded. A recorded stream is therefore
// byte-identical across schedulers and sweep worker counts, and a
// recorded run parks as an unrecorded one does.
// Recording is disabled by passing nil; a disabled machine pays one nil
// check per decision point. Reset and MachinePool.Put detach the
// recorder; the machine flushes it when Run returns (including by
// panic, so a failed run leaves a clean event prefix).
func (m *Machine) Record(rec *telemetry.Recorder) { m.rec = rec }
