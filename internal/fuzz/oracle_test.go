package fuzz

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestSchedTraceOracle drives the scheduler oracle's trace path directly:
// one eventLog per scheduler is fed batch by batch, as a recorder flushes
// it, and the kept traces are compared the way checkMode compares them.
func TestSchedTraceOracle(t *testing.T) {
	ev := func(cycle int64) telemetry.Event {
		return telemetry.Event{Cycle: cycle, Tx: cycle, Block: -1, Core: 1, Kind: telemetry.KindCommit}
	}
	evs := func(from, to int64) []telemetry.Event {
		var out []telemetry.Event
		for c := from; c < to; c++ {
			out = append(out, ev(c))
		}
		return out
	}
	type batches = [][]telemetry.Event
	cases := []struct {
		name        string
		limit       int
		lock, event batches
		wantLock    []telemetry.Event // kept lockstep trace
		wantEvent   []telemetry.Event // kept event trace
		report      []string          // substrings of the mismatch report; nil when the traces are equal
	}{
		{
			name:      "differ at event 6",
			limit:     100,
			lock:      batches{evs(0, 4), evs(4, 8)},
			event:     batches{evs(0, 4), {ev(4), ev(5), ev(99), ev(7)}},
			wantLock:  evs(0, 8),
			wantEvent: append(evs(0, 6), ev(99), ev(7)),
			report:    []string{"\nevent 6:\n", "lockstep: " + ev(6).String() + "\n", "event:    " + ev(99).String()},
		},
		{
			name:      "strict prefix",
			limit:     100,
			lock:      batches{evs(0, 4), evs(4, 6)},
			event:     batches{evs(0, 4)},
			wantLock:  evs(0, 6),
			wantEvent: evs(0, 4),
			report:    []string{"one trace is a prefix of the other (6 vs 4 events)"},
		},
		{
			// 4 events fit; the next batch would make 8 > 6 and is
			// dropped, and so is the 1-event batch after it, which alone
			// would still fit.
			name:      "cap drops the first batch past it and every later one",
			limit:     6,
			lock:      batches{evs(0, 4), evs(4, 8), evs(8, 9)},
			event:     batches{evs(0, 4), evs(4, 8), {ev(42)}},
			wantLock:  evs(0, 4),
			wantEvent: evs(0, 4),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lock, event := &eventLog{limit: tc.limit}, &eventLog{limit: tc.limit}
			for _, b := range tc.lock {
				lock.WriteEvents(b)
			}
			for _, b := range tc.event {
				event.WriteEvents(b)
			}
			if !slices.Equal(lock.evs, tc.wantLock) {
				t.Errorf("lockstep log kept %d events %v, want %v", len(lock.evs), lock.evs, tc.wantLock)
			}
			if !slices.Equal(event.evs, tc.wantEvent) {
				t.Errorf("event log kept %d events %v, want %v", len(event.evs), event.evs, tc.wantEvent)
			}
			if equal := slices.Equal(lock.evs, event.evs); equal != (tc.report == nil) {
				t.Fatalf("traces equal = %v, want %v", equal, tc.report == nil)
			}
			report := firstTraceDiff(lock.evs, event.evs)
			for _, want := range tc.report {
				if !strings.Contains(report, want) {
					t.Errorf("report %q does not contain %q", report, want)
				}
			}
			// reset readies the log for the next mode's run.
			lock.reset()
			lock.WriteEvents(evs(0, 2))
			if !slices.Equal(lock.evs, evs(0, 2)) {
				t.Errorf("after reset the log kept %v, want %v", lock.evs, evs(0, 2))
			}
		})
	}
}
