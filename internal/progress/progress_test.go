package progress

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sweep"
)

func counters(total, done, failed int64) *sweep.Progress {
	p := &sweep.Progress{}
	p.Total.Store(total)
	p.Done.Store(done)
	p.Failed.Store(failed)
	return p
}

// TestLine pins both kinds of status line: a ticker line extrapolates an
// ETA while runs remain, and the final line never does — a grid stopped
// with runs left (a ^C checkpoint) reports how many never started.
func TestLine(t *testing.T) {
	start := time.Now().Add(-4 * time.Second)
	for _, tc := range []struct {
		name                string
		total, done, failed int64
		final               bool
		want                string
	}{
		{"ticker/draining", 10, 4, 0, false, "sweep: progress 4/10 runs, eta 6s"},
		{"ticker/none-done", 10, 0, 0, false, "sweep: progress 0/10 runs"},
		{"ticker/drained", 10, 10, 0, false, "sweep: progress 10/10 runs"},
		{"ticker/failures", 10, 4, 2, false, "sweep: progress 4/10 runs, 2 failed, eta 6s"},
		{"final/complete", 10, 10, 1, true, "sweep: progress 10/10 runs, 1 failed"},
		{"final/interrupted", 252, 127, 0, true, "sweep: progress 127/252 runs, 125 not started"},
		{"final/interrupted-before-any", 8, 0, 0, true, "sweep: progress 0/8 runs, 8 not started"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := line("sweep", counters(tc.total, tc.done, tc.failed), start, tc.final)
			if got != tc.want {
				t.Errorf("line = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestStopWritesFinalLine: stop writes the final line, without an ETA,
// after the ticker has stopped.
func TestStopWritesFinalLine(t *testing.T) {
	var buf bytes.Buffer
	stop := Start(&buf, "retcon-sweep", counters(252, 127, 0), time.Hour)
	stop()
	if got, want := buf.String(), "retcon-sweep: progress 127/252 runs, 125 not started\n"; got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}
