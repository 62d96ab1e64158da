// Package lab is the hypothesis harness: sweeps in, statistics and
// verdicts out. A Hypothesis pairs a treatment and a control sweep grid
// over a shared multi-seed axis; Run executes both arms (plus 1-core
// eager baselines when the metric needs them, plus a lockstep-scheduler
// re-execution of every run as a differential oracle) through the
// concurrent sweep engine, evaluates the metric per run, summarizes each
// paired cell (means, 95% CIs, paired per-seed deltas), flags anomalies
// (scheduler divergence, watchdog trips, failed runs, zero-commit cells,
// non-finite metrics), and judges the claim SUPPORTED, REFUTED or
// INCONCLUSIVE. Render writes the whole report as a deterministic
// FINDINGS.md — byte-identical for any worker-pool size and under either
// cycle-loop scheduler.
package lab

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options configures a lab run.
type Options struct {
	// Base is the machine every grid patches; the zero value means
	// sim.DefaultParams().
	Base sim.Params
	// Engine executes the combined grid as given: pool size, per-run
	// deadline, journal (a resumed run replays journaled
	// outcomes and renders the byte-identical FINDINGS.md), progress
	// counters and the Stop checkpoint, after which Run returns an error
	// instead of judging a partial grid. The zero value is the plain
	// simulator on GOMAXPROCS workers.
	Engine sweep.Engine
	// Observe, when non-nil, is called once per successful grid run in
	// deterministic run order after the grid completes (baselines and
	// oracle twins excluded) — the export hook behind retcon-lab's
	// -metrics. It must not mutate the outcome.
	Observe func(sweep.Outcome)
}

// Arm is one side of a paired cell: the per-seed metric values in seed
// order and their summary.
type Arm struct {
	Label string
	Vals  []float64
	Sum   Summary
}

// Cell is one paired treatment/control comparison.
type Cell struct {
	Treatment Arm
	Control   Arm
	// Delta summarizes the paired per-seed differences
	// (treatment - control).
	Delta   Summary
	Verdict Verdict
	// Anomalies local to this cell (zero commits, non-finite metric).
	Anomalies []string
}

// Label renders the cell's comparison ("T vs C", collapsing the
// duplicate when the arms differ only in machine parameters).
func (c *Cell) Label() string {
	if c.Treatment.Label == c.Control.Label {
		return c.Treatment.Label
	}
	return c.Treatment.Label + " vs " + c.Control.Label
}

// Report is a judged hypothesis.
type Report struct {
	H     *Hypothesis
	Seeds []int64
	Cells []Cell
	// Verdict aggregates the cells: REFUTED if any cell refutes the
	// claim, else INCONCLUSIVE if any cell is unresolved, else
	// SUPPORTED. Infra anomalies force INCONCLUSIVE regardless.
	Verdict Verdict
	// Infra lists harness-level anomalies (scheduler divergence,
	// watchdog trips, failed runs) — evidence the engine itself is
	// suspect, so they override every cell verdict.
	Infra []string
	// Baselined records whether 1-core eager baselines ran.
	Baselined bool
	// OracleOn records whether the lockstep differential oracle ran.
	OracleOn bool
	// GridRuns counts the per-arm grid simulations (cells × seeds × 2).
	GridRuns int
}

// Run executes and judges the hypothesis.
func Run(h *Hypothesis, opt Options) (*Report, error) {
	base := opt.Base
	if base.Cores == 0 {
		base = sim.DefaultParams()
	}
	rs, err := h.Validate(base)
	if err != nil {
		return nil, err
	}

	texp, err := h.Treatment.ExpandWithSeeds(base, rs.seeds)
	if err != nil {
		return nil, err
	}
	cexp, err := h.Control.ExpandWithSeeds(base, rs.seeds)
	if err != nil {
		return nil, err
	}
	grid := append(append([]sweep.Run(nil), texp...), cexp...)

	// One combined, deduplicated engine pass: baselines first (ordered
	// delivery fills the index before any grid record needs it), then
	// both arms, then the lockstep oracle re-execution of every grid
	// run. When a grid run already uses the lockstep scheduler its
	// oracle twin deduplicates away — trivially equal, never divergent.
	var baselines []sweep.Run
	if rs.baselines {
		baselines = sweep.Baselines(grid)
	}
	var oracle []sweep.Run
	if rs.oracle {
		oracle = make([]sweep.Run, len(grid))
		for i, r := range grid {
			r.Params.Sched = sim.SchedLockstep
			oracle[i] = r
		}
	}
	combined := make([]sweep.Run, 0, len(baselines)+len(grid)+len(oracle))
	combined = append(combined, baselines...)
	combined = append(combined, grid...)
	combined = append(combined, oracle...)

	outs := opt.Engine.Execute(combined)

	// A checkpointed (interrupted) run must not be judged: some outcomes
	// never executed. Everything that DID run is in the journal, so the
	// caller resumes with it and gets the uninterrupted document.
	for _, o := range outs {
		if sweep.Classify(o.Err) == sweep.FailInterrupted {
			return nil, fmt.Errorf("lab: %s: interrupted before the grid completed; re-run with the same journal to resume", h.Name)
		}
	}

	bix := sweep.NewBaselineIndex(outs[:len(baselines)])
	gouts := outs[len(baselines) : len(baselines)+len(grid)]
	oouts := outs[len(baselines)+len(grid):]

	if opt.Observe != nil {
		for _, o := range gouts {
			if o.Err == nil {
				opt.Observe(o)
			}
		}
	}

	rep := &Report{
		H:         h,
		Seeds:     rs.seeds,
		Baselined: rs.baselines,
		OracleOn:  rs.oracle,
		GridRuns:  len(grid),
	}

	// Harness-level anomalies, in run order: failed baselines, failed
	// grid runs (watchdog trips called out), scheduler divergence.
	for _, o := range outs[:len(baselines)] {
		if o.Err != nil {
			rep.Infra = append(rep.Infra, fmt.Sprintf("baseline %s seed %d failed: %v",
				armLabel(o.Run), o.Run.Seed, o.Err))
		}
	}
	for i, o := range gouts {
		if o.Err != nil {
			rep.Infra = append(rep.Infra, fmt.Sprintf("%s in %s seed %d: %v",
				failLabel(o.Err), armLabel(o.Run), o.Run.Seed, o.Err))
			continue
		}
		if rs.oracle {
			oo := oouts[i]
			if oo.Err != nil {
				rep.Infra = append(rep.Infra, fmt.Sprintf("lockstep oracle run for %s seed %d failed: %v",
					armLabel(o.Run), o.Run.Seed, oo.Err))
			} else if !reflect.DeepEqual(o.Res, oo.Res) {
				rep.Infra = append(rep.Infra, fmt.Sprintf("scheduler divergence at %s seed %d: event and lockstep Results differ",
					armLabel(o.Run), o.Run.Seed))
			}
		}
	}

	tcells := sweep.GroupCells(texp)
	n := len(rs.seeds)
	for ci := range tcells {
		touts := gouts[ci*n : (ci+1)*n]
		couts := gouts[len(texp)+ci*n : len(texp)+(ci+1)*n]
		cell := buildCell(rs, bix, touts, couts)
		rep.Cells = append(rep.Cells, cell)
	}

	rep.Verdict = Supported
	for _, c := range rep.Cells {
		switch c.Verdict {
		case Refuted:
			rep.Verdict = Refuted
		case Inconclusive:
			if rep.Verdict == Supported {
				rep.Verdict = Inconclusive
			}
		}
	}
	if len(rep.Infra) > 0 {
		rep.Verdict = Inconclusive
	}
	return rep, nil
}

// buildCell evaluates the metric over one paired cell and judges it.
func buildCell(rs *resolved, bix *sweep.BaselineIndex, touts, couts []sweep.Outcome) Cell {
	cell := Cell{
		Treatment: Arm{Label: armLabel(touts[0].Run)},
		Control:   Arm{Label: armLabel(couts[0].Run)},
	}
	broken := false
	evalArm := func(a *Arm, outs []sweep.Outcome) {
		for _, o := range outs {
			if o.Err == nil && totalsCommits(o.Res) == 0 {
				cell.Anomalies = append(cell.Anomalies,
					fmt.Sprintf("zero commits in %s seed %d", a.Label, o.Run.Seed))
			}
			v, err := rs.metric.metricValue(o, bix, rs.baselines)
			if err != nil {
				// The failed run is already an infra anomaly; the cell
				// just cannot be judged.
				broken = true
				continue
			}
			if !isFinite(v) {
				cell.Anomalies = append(cell.Anomalies,
					fmt.Sprintf("metric %q is not finite in %s seed %d", rs.metric, a.Label, o.Run.Seed))
				broken = true
			}
			a.Vals = append(a.Vals, v)
		}
		a.Sum = Summarize(a.Vals)
	}
	evalArm(&cell.Treatment, touts)
	evalArm(&cell.Control, couts)
	if broken || len(cell.Treatment.Vals) != len(cell.Control.Vals) {
		cell.Verdict = Inconclusive
		return cell
	}
	delta, err := PairedDelta(cell.Treatment.Vals, cell.Control.Vals)
	if err != nil {
		cell.Verdict = Inconclusive
		return cell
	}
	cell.Delta = delta
	cell.Verdict = Judge(delta, rs.direction, rs.minEffect())
	if len(cell.Anomalies) > 0 {
		cell.Verdict = Inconclusive
	}
	return cell
}

func (rs *resolved) minEffect() float64 { return rs.minEffectVal }

func totalsCommits(res *sim.Result) int64 {
	var c int64
	for i := range res.PerCore {
		c += res.PerCore[i].Commits
	}
	return c
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// failLabel names a failed run's anomaly by its structured failure kind
// (sweep.Classify) — the lab's anomaly policy consumes the engine's
// classification instead of sniffing message substrings.
func failLabel(err error) string {
	switch sweep.Classify(err) {
	case sweep.FailWatchdog:
		return "watchdog trip"
	case sweep.FailPanic:
		return "panic"
	case sweep.FailDeadline:
		return "deadline abandon"
	case sweep.FailOracle:
		return "oracle violation"
	}
	return "run failed"
}

// armLabel renders one run's cell identity the way findings quote it:
// workload (shortened to its base name for "spec:" references, so the
// label is working-directory-independent), mode and core count.
func armLabel(r sweep.Run) string {
	return fmt.Sprintf("%s/%s@%d", shortWorkload(r.Workload), r.Params.Mode, r.Params.Cores)
}

// shortWorkload collapses a spec reference to its file base name plus
// knob overrides ("spec:…/zipf-hotset.json?zipf_s=1.2" →
// "zipf-hotset.json?zipf_s=1.2").
func shortWorkload(name string) string {
	const prefix = "spec:"
	if !strings.HasPrefix(name, prefix) {
		return name
	}
	rest := name[len(prefix):]
	query := ""
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		rest, query = rest[:i], rest[i:]
	}
	return filepath.Base(rest) + query
}
