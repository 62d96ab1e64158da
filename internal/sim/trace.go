package sim

import "repro/internal/telemetry"

// Record attaches a structured event recorder for the next Run: every
// architectural decision (begin, commit, abort with cause, NACK,
// symbolic release, constraint violation/reject, repair, tracking and
// predictor-training decisions) is emitted as a typed telemetry.Event.
// Events carry exact timestamps under every scheduler: the event-driven
// scheduler skips idle cycles but executes (and therefore records) each
// decision at the same Now the lockstep oracle would, so a recorded
// stream is byte-identical across schedulers and sweep worker counts.
// Recording is disabled by passing nil; a disabled machine pays one nil
// check per decision point. Reset and MachinePool.Put detach the
// recorder; the machine flushes it when Run returns (including by
// panic, so a failed run leaves a clean event prefix).
func (m *Machine) Record(rec *telemetry.Recorder) { m.rec = rec }
