package retcon_test

import (
	"bytes"
	"reflect"
	"testing"

	retcon "repro"
	"repro/internal/telemetry"
)

// TestRunRecorded checks the recorded event stream against the run's own
// counters, for contended counter runs in every mode: the stream records
// begin and commit events (and in RETCON, once symbolic tracking engages,
// symbolic release and repair events); there is one commit event per
// commit and one abort event per abort of each cause; the NACK waits'
// counts sum to the run's NACKs; eager, whose predictor is never
// consulted, records no training; and recording must not perturb the
// simulation.
func TestRunRecorded(t *testing.T) {
	w, err := retcon.LookupWorkload("counter")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []retcon.Mode{retcon.ModeEager, retcon.ModeLazyVB, retcon.ModeRetCon} {
		t.Run(mode.String(), func(t *testing.T) {
			var buf bytes.Buffer
			rec := telemetry.NewRecorder(telemetry.NewJSONLSink(&buf), 0)
			res, err := retcon.RunRecorded(w, cfg(4, mode), 1, rec)
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
			var nacks int64
			for _, e := range evs {
				kinds[e.Kind]++
				switch e.Kind {
				case telemetry.KindAbort:
					causes[e.Cause]++
				case telemetry.KindNack:
					nacks += e.C
				}
			}
			want := []telemetry.Kind{telemetry.KindBegin, telemetry.KindCommit, telemetry.KindNack}
			if mode == retcon.ModeRetCon {
				want = append(want, telemetry.KindRelease, telemetry.KindRepair)
			}
			for _, k := range want {
				if kinds[k] == 0 {
					t.Errorf("trace has no %s events", k)
				}
			}
			tot := res.Sim.Totals()
			if got := kinds[telemetry.KindCommit]; got != tot.Commits {
				t.Errorf("trace has %d commit events, run has %d commits", got, tot.Commits)
			}
			if causes != res.Sim.Metrics.AbortCause {
				t.Errorf("abort events by cause %v != Metrics.AbortCause %v", causes, res.Sim.Metrics.AbortCause)
			}
			if nacks != tot.Nacks {
				t.Errorf("NACK waits count %d NACKs, run has %d", nacks, tot.Nacks)
			}
			if n := kinds[telemetry.KindTrain]; mode == retcon.ModeEager && n != 0 {
				t.Errorf("eager trace has %d train events", n)
			}
			// Recording must not perturb the simulation.
			plain, err := retcon.RunSeeded(w, cfg(4, mode), 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Sim, res.Sim) {
				t.Errorf("recording changed the run:\nrecorded:   %+v\nunrecorded: %+v", res.Sim, plain.Sim)
			}
		})
	}
}
