// Package progress holds the CLI side of the sweep engine: the engine
// flags retcon-sweep and retcon-lab run share (Flags), and the reporter
// that renders the engine's Progress counters as periodic status lines.
// It deliberately lives outside the deterministic packages: the reporter
// polls on a wall-clock ticker from its own goroutine, which the engine
// itself must never do — the engine only bumps atomic counters, and
// everything time-flavored (intervals, ETA extrapolation, rendering)
// happens here, on stderr, where it can never perturb byte-stable
// stdout output.
package progress

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sweep"
)

// Start launches a goroutine that writes one status line to w every
// interval, rendering p's counters plus an ETA extrapolated from the
// mean per-run pace so far. The returned stop function halts the
// ticker, waits for the goroutine to exit, and writes one final line so
// the last state is always visible.
func Start(w io.Writer, name string, p *sweep.Progress, every time.Duration) (stop func()) {
	start := time.Now()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, line(name, p, start))
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		fmt.Fprintln(w, line(name, p, start))
	}
}

// line renders one status line: completed/total, failure and retry
// counts when nonzero, and the ETA while the grid is still draining.
func line(name string, p *sweep.Progress, start time.Time) string {
	total, done := p.Total.Load(), p.Done.Load()
	s := fmt.Sprintf("%s: progress %d/%d runs", name, done, total)
	if f := p.Failed.Load(); f > 0 {
		s += fmt.Sprintf(", %d failed", f)
	}
	if r := p.Retried.Load(); r > 0 {
		s += fmt.Sprintf(", %d retried", r)
	}
	if done > 0 && done < total {
		eta := time.Duration(float64(time.Since(start)) / float64(done) * float64(total-done))
		s += fmt.Sprintf(", eta %s", eta.Round(time.Second))
	}
	return s
}
