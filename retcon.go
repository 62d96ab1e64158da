// Package retcon is a library-level reproduction of "RETCON: Transactional
// Repair Without Replay" (Blundell, Raghavan, Martin — ISCA 2010 / UPenn TR
// MS-CIS-09-15): a deterministic cycle-level multicore simulator with a
// hardware-transactional-memory baseline and RETCON's symbolic conflict
// repair, plus the paper's workload kernels and evaluation harness.
//
// Quick start:
//
//	cfg := retcon.DefaultConfig()
//	cfg.Mode = retcon.ModeRetCon
//	res, err := retcon.RunNamed("python_opt", cfg)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package retcon

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/internal/wspec"
)

// Mode selects the conflict-handling configuration (Figure 9).
type Mode = sim.Mode

// Modes: the eager HTM baseline, the lazy value-based ablation, and full
// RETCON symbolic repair.
const (
	ModeEager  = sim.Eager
	ModeLazyVB = sim.LazyVB
	ModeRetCon = sim.RetCon
)

// Config is the machine configuration (Table 1 by default).
type Config = sim.Params

// DefaultConfig returns the paper's Table 1 machine configuration.
func DefaultConfig() Config { return sim.DefaultParams() }

// SchedKind selects the simulator's cycle-loop scheduler (Config.Sched).
type SchedKind = sim.SchedKind

// Schedulers: the event-driven time-skip scheduler (the default) and the
// cycle-by-cycle lockstep reference oracle. Both produce identical
// Results; the event scheduler is simply faster on stall-heavy runs.
const (
	SchedEvent    = sim.SchedEvent
	SchedLockstep = sim.SchedLockstep
)

// ParseSched parses a scheduler name: "event" or "lockstep".
func ParseSched(s string) (SchedKind, error) { return sim.ParseSched(s) }

// Result is a completed simulation with its statistics. Everything in
// Sim is scheduler-invariant; Sched is the one scheduler-dependent
// extra (the event scheduler's loop occupancy, zeros under lockstep).
type Result struct {
	Workload string
	Threads  int
	Mode     Mode
	Cycles   int64
	Sim      *sim.Result
	Sched    sim.SchedStats
}

// Workload is a runnable benchmark kernel.
type Workload = workloads.Workload

// Workloads returns every available workload: the paper's kernels in
// presentation order, then dynamically registered ones (compiled
// workload specs) in registration order.
func Workloads() []Workload { return workloads.All() }

// ListWorkloads returns (name, description) rows for every registered
// workload without constructing them.
func ListWorkloads() []workloads.Info { return workloads.Default.List() }

// RegisterWorkload adds a workload factory to the process-wide registry,
// making it runnable by name everywhere (retcon-sim, sweeps, reports).
func RegisterWorkload(f func() Workload) { workloads.Register(f) }

// LookupWorkload returns the workload with the given paper name
// (e.g. "genome-sz", "python_opt"), a registered name, or a declarative
// workload-spec reference of the form "spec:<path>[?knob=v&...]" (see
// internal/wspec), which is compiled and registered on first use.
func LookupWorkload(name string) (Workload, error) {
	if wspec.IsRef(name) {
		return wspec.Resolve(name)
	}
	return workloads.Lookup(name)
}

// Run builds the workload for cfg.Cores threads, simulates it to
// completion, verifies the final memory image against the workload's
// atomicity invariants, and returns the result.
func Run(w Workload, cfg Config) (*Result, error) {
	return RunSeeded(w, cfg, 1)
}

// RunSeeded is Run with an explicit workload input seed.
func RunSeeded(w Workload, cfg Config, seed int64) (*Result, error) {
	return RunRecorded(w, cfg, seed, nil)
}

// RunRecorded is RunSeeded with a structured event recorder attached
// (nil records nothing): every architectural decision is emitted as a
// typed telemetry.Event (see internal/telemetry). The recorded stream
// is a pure function of (workload, cfg, seed) — byte-identical across
// schedulers — and the machine flushes the recorder when the run ends;
// check rec.Err afterwards for sink failures. The result additionally carries the scheduler-occupancy counters in
// Sched (how the event scheduler split the run between its event loops
// and the dense inner loop — all zeros under lockstep).
func RunRecorded(w Workload, cfg Config, seed int64, rec *telemetry.Recorder) (*Result, error) {
	bundle := w.Build(cfg.Cores, seed)
	machine, err := sim.New(cfg, bundle.Mem, bundle.Programs)
	if err != nil {
		return nil, fmt.Errorf("retcon: %s: %w", w.Name(), err)
	}
	machine.Record(rec)
	res, err := machine.Run()
	if err != nil {
		return nil, fmt.Errorf("retcon: %s: %w", w.Name(), err)
	}
	if bundle.Verify != nil {
		if err := bundle.Verify(bundle.Mem); err != nil {
			return nil, fmt.Errorf("retcon: %s (%v, %d cores): %w", w.Name(), cfg.Mode, cfg.Cores, err)
		}
	}
	return &Result{
		Workload: w.Name(),
		Threads:  cfg.Cores,
		Mode:     cfg.Mode,
		Cycles:   res.Cycles,
		Sim:      res,
		Sched:    machine.SchedStats(),
	}, nil
}

// RunNamed runs the workload with the given paper name.
func RunNamed(name string, cfg Config) (*Result, error) {
	w, err := LookupWorkload(name)
	if err != nil {
		return nil, err
	}
	return Run(w, cfg)
}

// Speedup runs the workload sequentially (one core) and under cfg, and
// returns parallel speedup = seq cycles / parallel cycles, as in the
// paper's "speedup over seq" figures.
func Speedup(w Workload, cfg Config) (speedup float64, seq, par *Result, err error) {
	seqCfg := cfg
	seqCfg.Cores = 1
	seqCfg.Mode = ModeEager
	seq, err = Run(w, seqCfg)
	if err != nil {
		return 0, nil, nil, err
	}
	par, err = Run(w, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	return float64(seq.Cycles) / float64(par.Cycles), seq, par, nil
}
