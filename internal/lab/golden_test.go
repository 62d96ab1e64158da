package lab

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

const hypothesesDir = "../../examples/hypotheses"

// renderHypothesis loads and runs one example hypothesis and returns the
// rendered findings.
func renderHypothesis(t *testing.T, path string, opt Options) []byte {
	t.Helper()
	h, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	return Render(rep)
}

func readRecorded(t *testing.T, specPath, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(RecordedPath(specPath, name))
	if err != nil {
		t.Fatalf("no recorded findings (run `retcon-lab run -record %s`): %v", specPath, err)
	}
	return want
}

// TestZipfSkewGolden pins the full pipeline: the zipf-skew example must
// render byte-identically for any worker-pool size and with every grid
// run simulated under the lockstep scheduler, and match the recorded
// FINDINGS.md exactly. It runs in -short mode (the grid takes tens of
// milliseconds) so CI always exercises the end-to-end path under -race.
func TestZipfSkewGolden(t *testing.T) {
	spec := filepath.Join(hypothesesDir, "zipf-skew.json")
	want := readRecorded(t, spec, "zipf-skew")

	simulate := sweep.SimRunner(nil)
	lockstep := func(t sweep.Task) (*sim.Result, error) {
		t.Run.Params.Sched = sim.SchedLockstep
		return simulate(t)
	}
	variants := []struct {
		name string
		opt  Options
	}{
		{"workers=1", Options{Engine: sweep.Engine{Workers: 1}}},
		{"workers=8", Options{Engine: sweep.Engine{Workers: 8}}},
		{"workers=8 lockstep", Options{Engine: sweep.Engine{Workers: 8, Tasks: lockstep}}},
	}
	for _, v := range variants {
		got := renderHypothesis(t, spec, v.opt)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: findings diverge from the recorded golden%s",
				v.name, firstDiffLine(want, got))
		}
	}
}

// TestRecordedHypotheses re-runs every checked-in hypothesis and compares
// against its recorded verdict. The figure9 grid simulates 16-core
// machines, so the full set is skipped under -short.
func TestRecordedHypotheses(t *testing.T) {
	if testing.Short() {
		t.Skip("full example-hypothesis set under -short (zipf-skew is covered by TestZipfSkewGolden)")
	}
	specs, err := filepath.Glob(filepath.Join(hypothesesDir, "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example hypotheses found: %v", err)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(filepath.Base(spec), func(t *testing.T) {
			t.Parallel()
			h, err := LoadFile(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := readRecorded(t, spec, h.Name)
			got := renderHypothesis(t, spec, Options{})
			if !bytes.Equal(got, want) {
				t.Errorf("findings diverge from the recorded golden%s", firstDiffLine(want, got))
			}
		})
	}
}

// firstDiffLine renders the first differing line of two documents.
func firstDiffLine(want, got []byte) string {
	w := bytes.Split(want, []byte{'\n'})
	g := bytes.Split(got, []byte{'\n'})
	n := min(len(w), len(g))
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("\nline %d:\n  recorded: %s\n  current:  %s", i+1, w[i], g[i])
		}
	}
	return "\none document is a prefix of the other"
}
