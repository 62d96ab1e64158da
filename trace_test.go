package retcon_test

import (
	"bytes"
	"testing"

	retcon "repro"
	"repro/internal/telemetry"
)

// TestRunRecorded checks the recorded event stream against the run's own
// counters: a contended RETCON run must record begin and commit events
// and, once symbolic tracking engages, symbolic release and repair
// events; there is one commit event per commit and one abort event per
// abort of each cause; and recording must not perturb the simulation.
func TestRunRecorded(t *testing.T) {
	w, err := retcon.LookupWorkload("counter")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(telemetry.NewBinarySink(&buf), 0)
	res, err := retcon.RunRecorded(w, cfg(4, retcon.ModeRetCon), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var kinds [telemetry.NumKinds]int64
	var causes [telemetry.NumCauses]int64
	for _, e := range evs {
		kinds[e.Kind]++
		if e.Kind == telemetry.KindAbort {
			causes[e.Cause]++
		}
	}
	for _, k := range []telemetry.Kind{telemetry.KindBegin, telemetry.KindCommit, telemetry.KindRelease, telemetry.KindRepair} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %s events", k)
		}
	}
	if got, want := kinds[telemetry.KindCommit], res.Sim.Totals().Commits; got != want {
		t.Errorf("trace has %d commit events, run has %d commits", got, want)
	}
	if causes != res.Sim.Metrics.AbortCause {
		t.Errorf("abort events by cause %v != Metrics.AbortCause %v", causes, res.Sim.Metrics.AbortCause)
	}
	// Recording must not perturb the simulation.
	plain, err := retcon.RunSeeded(w, cfg(4, retcon.ModeRetCon), 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != res.Cycles {
		t.Errorf("recording changed the run: %d vs %d cycles", res.Cycles, plain.Cycles)
	}
}
