// Package report regenerates the paper's evaluation tables and figures
// from simulator runs: Figure 1 and 3 (speedups), Figure 4 and 10
// (execution-time breakdowns), Figure 9 (eager vs lazy-vb vs RETCON) and
// Table 3 (RETCON structure utilization). cmd/paperbench and the root
// bench harness both drive it.
//
// The Harness executes every simulation through the concurrent sweep
// engine (internal/sweep): each figure/table prefetches its full
// workload × mode × cores grid across a bounded worker pool, then
// assembles rows serially from the engine's in-memory journal. Because
// each simulation is itself deterministic and runs share no state, the
// rendered tables are byte-identical to a sequential regeneration for
// any pool size. The package also hosts the structured sinks (JSONL, CSV, text table) that
// sweep records stream through.
package report

import (
	"fmt"
	"io"

	retcon "repro"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Harness runs simulations for report generation. Every run goes through
// the sweep engine with one in-memory journal, so figures sharing data
// (e.g. Figure 9 includes Figure 3's eager bars) do not re-simulate;
// Workers bounds the pool.
type Harness struct {
	Base retcon.Config
	Seed int64
	// Workers bounds the concurrent prefetch pool; <= 0 means GOMAXPROCS.
	Workers int

	journal *sweep.Journal
}

// NewHarness creates a harness over the given base machine configuration.
func NewHarness(base retcon.Config) *Harness {
	return &Harness{Base: base, Seed: 1, journal: sweep.NewJournal()}
}

// Run returns the result of the workload under mode with the given core
// count, simulating it only the first time.
func (h *Harness) Run(name string, mode retcon.Mode, cores int) (*retcon.Result, error) {
	outs, err := h.prefetch([]sweep.Run{h.runOf(name, mode, cores)})
	if err != nil {
		return nil, err
	}
	res := outs[0].Res
	return &retcon.Result{Workload: name, Threads: cores, Mode: mode, Cycles: res.Cycles, Sim: res}, nil
}

// runOf is the harness's run of the workload under mode at cores.
func (h *Harness) runOf(name string, mode retcon.Mode, cores int) sweep.Run {
	cfg := h.Base
	cfg.Mode = mode
	cfg.Cores = cores
	return sweep.Run{Workload: name, Seed: h.Seed, Params: cfg}
}

// prefetch executes the runs not yet journaled through the sweep engine's
// worker pool. It returns every outcome and the first per-run error.
func (h *Harness) prefetch(runs []sweep.Run) ([]sweep.Outcome, error) {
	outs := (&sweep.Engine{Workers: h.Workers, Journal: h.journal}).Execute(runs)
	return outs, sweep.FirstErr(outs)
}

// Speedup returns the workload's speedup over one-core sequential
// execution under the given mode at the base core count.
func (h *Harness) Speedup(name string, mode retcon.Mode) (float64, error) {
	seq, err := h.Run(name, retcon.ModeEager, 1)
	if err != nil {
		return 0, err
	}
	par, err := h.Run(name, mode, h.Base.Cores)
	if err != nil {
		return 0, err
	}
	return float64(seq.Cycles) / float64(par.Cycles), nil
}

// SpeedupRow is one bar of a speedup figure.
type SpeedupRow struct {
	Workload string
	Mode     retcon.Mode
	Speedup  float64
}

// Figure1 regenerates Figure 1: eager-HTM speedup of the eight unmodified
// workloads.
func (h *Harness) Figure1() ([]SpeedupRow, error) {
	return h.speedups(workloads.Figure1Names(), []retcon.Mode{retcon.ModeEager})
}

// Figure3 regenerates Figure 3: eager speedups for all fourteen variants
// (before and after the software restructurings).
func (h *Harness) Figure3() ([]SpeedupRow, error) {
	return h.speedups(workloads.PaperNames(), []retcon.Mode{retcon.ModeEager})
}

// Figure9 regenerates Figure 9: speedups under eager, lazy-vb and RETCON
// for all fourteen variants.
func (h *Harness) Figure9() ([]SpeedupRow, error) {
	return h.speedups(workloads.PaperNames(),
		[]retcon.Mode{retcon.ModeEager, retcon.ModeLazyVB, retcon.ModeRetCon})
}

func (h *Harness) speedups(names []string, modes []retcon.Mode) ([]SpeedupRow, error) {
	var runs []sweep.Run
	for _, name := range names {
		runs = append(runs, h.runOf(name, retcon.ModeEager, 1))
		for _, mode := range modes {
			runs = append(runs, h.runOf(name, mode, h.Base.Cores))
		}
	}
	if _, err := h.prefetch(runs); err != nil {
		return nil, err
	}
	var rows []SpeedupRow
	for _, name := range names {
		for _, mode := range modes {
			s, err := h.Speedup(name, mode)
			if err != nil {
				return nil, fmt.Errorf("report: %s/%v: %w", name, mode, err)
			}
			rows = append(rows, SpeedupRow{Workload: name, Mode: mode, Speedup: s})
		}
	}
	return rows, nil
}

// BreakdownRow is one stacked bar of Figure 4 / Figure 10.
type BreakdownRow struct {
	Workload string
	Mode     retcon.Mode
	// Fractions of attributed core-cycles per category.
	Busy, Barrier, Conflict, Other float64
	// Runtime normalized to the eager configuration (Figure 10's y-axis;
	// 1.0 for Figure 4 rows).
	NormRuntime float64
}

// Figure4 regenerates Figure 4: the execution-time breakdown of all
// fourteen variants on the eager baseline.
func (h *Harness) Figure4() ([]BreakdownRow, error) {
	return h.breakdowns([]retcon.Mode{retcon.ModeEager})
}

// Figure10 regenerates Figure 10: breakdowns under all three modes,
// normalized to eager runtime.
func (h *Harness) Figure10() ([]BreakdownRow, error) {
	return h.breakdowns([]retcon.Mode{retcon.ModeEager, retcon.ModeLazyVB, retcon.ModeRetCon})
}

func (h *Harness) breakdowns(modes []retcon.Mode) ([]BreakdownRow, error) {
	return h.breakdownsFor(workloads.PaperNames(), modes)
}

func (h *Harness) breakdownsFor(names []string, modes []retcon.Mode) ([]BreakdownRow, error) {
	var runs []sweep.Run
	for _, name := range names {
		runs = append(runs, h.runOf(name, retcon.ModeEager, h.Base.Cores))
		for _, mode := range modes {
			runs = append(runs, h.runOf(name, mode, h.Base.Cores))
		}
	}
	if _, err := h.prefetch(runs); err != nil {
		return nil, err
	}
	var rows []BreakdownRow
	for _, name := range names {
		eager, err := h.Run(name, retcon.ModeEager, h.Base.Cores)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			r, err := h.Run(name, mode, h.Base.Cores)
			if err != nil {
				return nil, err
			}
			bd := r.Sim.Breakdown()
			norm := float64(r.Cycles) / float64(eager.Cycles)
			rows = append(rows, BreakdownRow{
				Workload:    name,
				Mode:        mode,
				Busy:        bd[sim.CatBusy],
				Barrier:     bd[sim.CatBarrier],
				Conflict:    bd[sim.CatConflict],
				Other:       bd[sim.CatOther],
				NormRuntime: norm,
			})
		}
	}
	return rows, nil
}

// Table3Row is one workload's row of Table 3.
type Table3Row struct {
	Workload string
	Row      sim.Table3Row
}

// Table3 regenerates Table 3: RETCON structure utilization and pre-commit
// overhead per workload.
func (h *Harness) Table3() ([]Table3Row, error) {
	var runs []sweep.Run
	for _, name := range workloads.PaperNames() {
		runs = append(runs, h.runOf(name, retcon.ModeRetCon, h.Base.Cores))
	}
	if _, err := h.prefetch(runs); err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, name := range workloads.PaperNames() {
		r, err := h.Run(name, retcon.ModeRetCon, h.Base.Cores)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Workload: name, Row: r.Sim.Table3()})
	}
	return rows, nil
}

// IdealRow compares default RETCON with the idealized variant of §5.3
// (unlimited state, parallel reacquire, free commit stores).
type IdealRow struct {
	Workload     string
	Default      float64 // speedup over seq
	Ideal        float64
	DeltaPercent float64
}

// IdealComparison regenerates the §5.3 idealized-system validation.
func (h *Harness) IdealComparison(names []string) ([]IdealRow, error) {
	// Each workload's ideal run follows its eager baseline and default
	// RetCon run, so the ideal outcome of names[i] is outs[3*i+2].
	var runs []sweep.Run
	for _, name := range names {
		ideal := h.runOf(name, retcon.ModeRetCon, h.Base.Cores)
		ideal.Params.IdealUnlimited = true
		ideal.Params.IdealParallelReacquire = true
		ideal.Params.IdealZeroStoreLatency = true
		runs = append(runs, h.runOf(name, retcon.ModeEager, 1), h.runOf(name, retcon.ModeRetCon, h.Base.Cores), ideal)
	}
	outs, err := h.prefetch(runs)
	if err != nil {
		return nil, err
	}

	var rows []IdealRow
	for i, name := range names {
		def, err := h.Speedup(name, retcon.ModeRetCon)
		if err != nil {
			return nil, err
		}
		seq, err := h.Run(name, retcon.ModeEager, 1)
		if err != nil {
			return nil, err
		}
		idealSp := float64(seq.Cycles) / float64(outs[3*i+2].Res.Cycles)
		rows = append(rows, IdealRow{
			Workload:     name,
			Default:      def,
			Ideal:        idealSp,
			DeltaPercent: 100 * (idealSp - def) / def,
		})
	}
	return rows, nil
}

// --- formatting ---

// WriteSpeedups renders speedup rows as an aligned table.
func WriteSpeedups(w io.Writer, title string, rows []SpeedupRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-18s %-9s %9s\n", "workload", "config", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-9s %8.2fx\n", r.Workload, r.Mode.String(), r.Speedup)
	}
}

// WriteBreakdowns renders breakdown rows as an aligned table.
func WriteBreakdowns(w io.Writer, title string, rows []BreakdownRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-18s %-9s %8s %8s %8s %8s %8s\n",
		"workload", "config", "norm", "busy", "barrier", "conflict", "other")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-9s %8.2f %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			r.Workload, r.Mode.String(), r.NormRuntime,
			100*r.Busy, 100*r.Barrier, 100*r.Conflict, 100*r.Other)
	}
}

// WriteTable3 renders Table 3 in the paper's column layout.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: RETCON structure utilization and pre-commit overhead")
	fmt.Fprintf(w, "%-18s %-12s %-12s %-12s %-12s %-12s %8s %7s\n",
		"workload", "lost", "tracked", "symregs", "stores", "constr", "cycles", "stall%")
	for _, r := range rows {
		t := r.Row
		fmt.Fprintf(w, "%-18s %-12s %-12s %-12s %-12s %-12s %8.1f %6.2f%%\n",
			r.Workload,
			avgMax(t.AvgLost, t.MaxLost), avgMax(t.AvgTracked, t.MaxTracked),
			avgMax(t.AvgRegs, t.MaxRegs), avgMax(t.AvgStores, t.MaxStores),
			avgMax(t.AvgConstraints, t.MaxConstraints),
			t.AvgCommitCycles, t.CommitStallPct)
	}
}

func avgMax(avg, max float64) string {
	return fmt.Sprintf("%.1f (%.0f)", avg, max)
}

// WriteTable2 renders the workload descriptions.
func WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: workloads")
	for _, wl := range workloads.Builtins() {
		fmt.Fprintf(w, "%-18s %s\n", wl.Name(), wl.Description())
	}
}

// WriteIdeal renders the idealized-system comparison.
func WriteIdeal(w io.Writer, rows []IdealRow) {
	fmt.Fprintln(w, "Idealized RETCON (unlimited state, parallel reacquire, free stores) vs default")
	fmt.Fprintf(w, "%-18s %10s %10s %8s\n", "workload", "default", "ideal", "delta")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %9.2fx %9.2fx %+7.1f%%\n", r.Workload, r.Default, r.Ideal, r.DeltaPercent)
	}
}
