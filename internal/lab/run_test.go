package lab

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// fakeRes builds a minimal committed Result for a fake runner.
func fakeRes(cycles int64, commits int64) *sim.Result {
	return &sim.Result{Cycles: cycles, Cores: 1, PerCore: []sim.CoreStats{{Commits: commits}}}
}

// cyclesByMode is a deterministic fake runner: retcon runs take lo
// cycles plus a per-seed wiggle, everything else takes hi. It is a pure
// function of the run's identity minus the scheduler, so the lockstep
// oracle twin always agrees.
func cyclesByMode(lo, hi int64) sweep.TaskFunc {
	return func(tk sweep.Task) (*sim.Result, error) {
		r := tk.Run
		c := hi
		if r.Params.Mode == sim.RetCon {
			c = lo
		}
		return fakeRes(c+r.Seed, 1), nil
	}
}

func runMinimal(t *testing.T, mutate func(h *Hypothesis), runner sweep.TaskFunc) *Report {
	t.Helper()
	h := minimal()
	h.Seeds = []int64{1, 2, 3}
	if mutate != nil {
		mutate(h)
	}
	rep, err := Run(h, Options{Engine: sweep.Engine{Workers: 2, Tasks: runner}})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunSupported(t *testing.T) {
	// Claim: retcon decreases cycles. 100+seed vs 500+seed: every paired
	// delta is exactly -400, so the CI collapses onto it.
	rep := runMinimal(t, nil, cyclesByMode(100, 500))
	if rep.Verdict != Supported {
		t.Fatalf("verdict = %v, want SUPPORTED; infra %v", rep.Verdict, rep.Infra)
	}
	if len(rep.Cells) != 1 || rep.GridRuns != 6 {
		t.Fatalf("cells %d, grid runs %d", len(rep.Cells), rep.GridRuns)
	}
	c := rep.Cells[0]
	if !close(c.Delta.Mean, -400) || c.Delta.CI95 != 0 {
		t.Fatalf("delta = %+v", c.Delta)
	}
	if !rep.OracleOn || len(rep.Infra) != 0 || len(c.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: infra %v, cell %v", rep.Infra, c.Anomalies)
	}
	if c.Label() != "counter/RetCon@2 vs counter/eager@2" {
		t.Fatalf("cell label %q", c.Label())
	}
}

func TestRunRefuted(t *testing.T) {
	// Same claim, but retcon is slower: the CI excludes any decrease.
	rep := runMinimal(t, nil, cyclesByMode(500, 100))
	if rep.Verdict != Refuted {
		t.Fatalf("verdict = %v, want REFUTED", rep.Verdict)
	}
}

func TestRunWatchdogTrip(t *testing.T) {
	rep := runMinimal(t, nil, func(tk sweep.Task) (*sim.Result, error) {
		r := tk.Run
		if r.Params.Mode == sim.RetCon && r.Seed == 2 {
			// The structured watchdog error, wrapped the way the runner
			// wraps it: classification must survive %w wrapping.
			return nil, fmt.Errorf("sweep: %s: %w", r.Workload,
				&sim.WatchdogError{Cycles: 1000, PCs: []int{3, 7}})
		}
		return fakeRes(100+r.Seed, 1), nil
	})
	if rep.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want INCONCLUSIVE", rep.Verdict)
	}
	found := false
	for _, a := range rep.Infra {
		if strings.Contains(a, "watchdog trip") && strings.Contains(a, "seed 2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("watchdog trip not reported: %v", rep.Infra)
	}
}

func TestRunSchedulerDivergence(t *testing.T) {
	// The lockstep twin of one grid run disagrees: infra anomaly, and the
	// whole report is INCONCLUSIVE even though the cell numbers decide.
	rep := runMinimal(t, nil, func(tk sweep.Task) (*sim.Result, error) {
		r := tk.Run
		c := int64(500)
		if r.Params.Mode == sim.RetCon {
			c = 100
			if r.Seed == 3 && r.Params.Sched == sim.SchedLockstep {
				c = 101 // diverges from the event-scheduled grid run
			}
		}
		return fakeRes(c+r.Seed, 1), nil
	})
	if rep.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want INCONCLUSIVE", rep.Verdict)
	}
	found := false
	for _, a := range rep.Infra {
		if strings.Contains(a, "scheduler divergence") && strings.Contains(a, "seed 3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergence not reported: %v", rep.Infra)
	}
}

func TestRunOracleOff(t *testing.T) {
	// With the oracle off the divergent lockstep twin is never executed.
	rep := runMinimal(t, func(h *Hypothesis) { h.Oracle = "off" },
		func(tk sweep.Task) (*sim.Result, error) {
			r := tk.Run
			if r.Params.Sched == sim.SchedLockstep {
				return nil, fmt.Errorf("oracle ran despite oracle: off")
			}
			c := int64(500)
			if r.Params.Mode == sim.RetCon {
				c = 100
			}
			return fakeRes(c+r.Seed, 1), nil
		})
	if rep.OracleOn || len(rep.Infra) != 0 || rep.Verdict != Supported {
		t.Fatalf("oracle off: on=%v infra=%v verdict=%v", rep.OracleOn, rep.Infra, rep.Verdict)
	}
}

func TestRunZeroCommitsAnomaly(t *testing.T) {
	rep := runMinimal(t, nil, func(tk sweep.Task) (*sim.Result, error) {
		r := tk.Run
		commits := int64(1)
		if r.Params.Mode == sim.Eager && r.Seed == 1 {
			commits = 0
		}
		c := int64(500)
		if r.Params.Mode == sim.RetCon {
			c = 100
		}
		return fakeRes(c+r.Seed, commits), nil
	})
	if rep.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want INCONCLUSIVE", rep.Verdict)
	}
	c := rep.Cells[0]
	if len(c.Anomalies) != 1 || !strings.Contains(c.Anomalies[0], "zero commits") {
		t.Fatalf("cell anomalies %v", c.Anomalies)
	}
	if c.Verdict != Inconclusive {
		t.Fatalf("an anomalous cell must not be judged: %v", c.Verdict)
	}
}

func TestRunNonFiniteMetric(t *testing.T) {
	rep := runMinimal(t, func(h *Hypothesis) { h.Metric = "1 / (commits - commits)" },
		cyclesByMode(100, 500))
	if rep.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want INCONCLUSIVE", rep.Verdict)
	}
	if len(rep.Cells[0].Anomalies) == 0 ||
		!strings.Contains(rep.Cells[0].Anomalies[0], "not finite") {
		t.Fatalf("anomalies %v", rep.Cells[0].Anomalies)
	}
}

func TestRunBaselines(t *testing.T) {
	// speedup = baseline / cycles: retcon 1000/200=5, eager 1000/500=2,
	// every paired delta exactly +3.
	rep := runMinimal(t, func(h *Hypothesis) {
		h.Metric = "speedup"
		h.Direction = "increase"
		h.MinEffect = 1
	}, func(tk sweep.Task) (*sim.Result, error) {
		r := tk.Run
		switch {
		case r.Params.Cores == 1 && r.Params.Mode == sim.Eager:
			return fakeRes(1000, 1), nil
		case r.Params.Mode == sim.RetCon:
			return fakeRes(200, 1), nil
		default:
			return fakeRes(500, 1), nil
		}
	})
	if !rep.Baselined {
		t.Fatal("speedup metric must run baselines")
	}
	if rep.Verdict != Supported {
		t.Fatalf("verdict = %v, want SUPPORTED; infra %v", rep.Verdict, rep.Infra)
	}
	if d := rep.Cells[0].Delta; !close(d.Mean, 3) || d.CI95 != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestRunRefutedBeatsInconclusive(t *testing.T) {
	// Two cells: counter refutes the decrease cleanly, labyrinth's metric
	// blows up and stays unresolved. One refuting cell decides the claim.
	rep := runMinimal(t, func(h *Hypothesis) {
		h.Treatment.Workloads = []string{"counter", "labyrinth"}
		h.Control.Workloads = []string{"counter", "labyrinth"}
	}, func(tk sweep.Task) (*sim.Result, error) {
		r := tk.Run
		commits := int64(1)
		if r.Workload == "labyrinth" && r.Params.Mode == sim.RetCon {
			commits = 0 // cell-local anomaly → that cell is inconclusive
		}
		c := int64(100)
		if r.Params.Mode == sim.RetCon {
			c = 500 // slower: refutes "retcon decreases cycles"
		}
		return fakeRes(c+r.Seed, commits), nil
	})
	if len(rep.Cells) != 2 {
		t.Fatalf("cells %d", len(rep.Cells))
	}
	if rep.Cells[0].Verdict != Refuted || rep.Cells[1].Verdict != Inconclusive {
		t.Fatalf("cell verdicts %v, %v", rep.Cells[0].Verdict, rep.Cells[1].Verdict)
	}
	if rep.Verdict != Refuted {
		t.Fatalf("verdict = %v, want REFUTED (a refuting cell decides)", rep.Verdict)
	}
}

func TestRunSchedOverrideStillDeterministic(t *testing.T) {
	// Forcing either scheduler on the grid must not change the rendered
	// findings when the runner is scheduler-oblivious.
	var docs [][]byte
	for _, k := range []sim.SchedKind{sim.SchedEvent, sim.SchedLockstep} {
		h := minimal()
		h.Seeds = []int64{1, 2, 3}
		kk := k
		rep, err := Run(h, Options{Engine: sweep.Engine{Workers: 4, Tasks: cyclesByMode(100, 500)}, Sched: &kk})
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, Render(rep))
	}
	if string(docs[0]) != string(docs[1]) {
		t.Fatal("findings differ across forced schedulers")
	}
}
