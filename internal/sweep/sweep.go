// Package sweep is the concurrent experiment-sweep engine: it expands a
// declarative Spec (workload × mode × cores × seed, plus per-axis
// sim.Params overrides) into independent Runs, executes them across a
// bounded pool of worker goroutines, and flattens each outcome into a
// stable Record for structured sinks (JSON lines, CSV, text tables — the
// encoders live in internal/report).
//
// Determinism guarantees:
//
//   - Expansion is deterministic: a Spec always expands to the same Runs
//     in the same order (workload-major, then mode, cores, seed).
//   - Each Run carries its own explicit seed; nothing derives seeds from
//     wall-clock time or scheduling order.
//   - The simulator itself is single-goroutine per run and fully
//     deterministic, and runs share no mutable state, so executing a grid
//     on 1 worker or N workers produces identical per-run results.
//   - Engine.ExecuteStream delivers outcomes in Run order (not completion
//     order), so streamed output files are byte-stable across pool sizes.
//
// Identical configurations — within one spec or across merged specs — are
// deduplicated before execution: every duplicate Run is simulated once and
// all aliases share the one result.
package sweep

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// Run is one fully-expanded simulation: a workload instance under a
// complete machine configuration. Params embeds the mode and core count.
type Run struct {
	Spec     string // owning spec name (labels records; not part of identity)
	Workload string
	Seed     int64
	Params   sim.Params
}

// key is the identity of a run for deduplication. sim.Params is a flat
// comparable struct, so the whole configuration participates.
type key struct {
	Workload string
	Seed     int64
	Params   sim.Params
}

func (r Run) key() key { return key{r.Workload, r.Seed, r.Params} }

// CellKey is a run's identity with the seed removed: the "cell" of a
// multi-seed grid. All runs of one cell are the same configuration
// executed under different workload input seeds — the unit over which
// per-seed statistics (means, CIs, paired deltas) are computed.
type CellKey struct {
	Workload string
	Params   sim.Params
}

// CellKey returns the run's seedless identity.
func (r Run) CellKey() CellKey { return CellKey{r.Workload, r.Params} }

// GroupCells partitions runs into maximal consecutive groups sharing one
// CellKey, preserving run order inside each group. Expansion is
// seed-minor (workload-major, then mode, cores, seed), so the runs of a
// grid expanded with ExpandWithSeeds group into one cell per axis point,
// each listing its seeds in expansion order.
func GroupCells(runs []Run) [][]Run {
	var cells [][]Run
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].CellKey() == runs[i].CellKey() {
			j++
		}
		cells = append(cells, runs[i:j])
		i = j
	}
	return cells
}

// Outcome is a completed (or failed) run.
type Outcome struct {
	Run Run
	Res *sim.Result // nil iff Err != nil
	Err error
}

// Record is the flattened, stable-schema form of an outcome for
// structured sinks. Field order here is the CSV column order.
type Record struct {
	Spec     string  `json:"spec,omitempty"`
	Workload string  `json:"workload"`
	Mode     string  `json:"mode"`
	Cores    int     `json:"cores"`
	Seed     int64   `json:"seed"`
	Cycles   int64   `json:"cycles"`
	Instrs   int64   `json:"instrs"`
	Commits  int64   `json:"commits"`
	Aborts   int64   `json:"aborts"`
	Nacks    int64   `json:"nacks"`
	Busy     float64 `json:"busy_frac"`
	Barrier  float64 `json:"barrier_frac"`
	Conflict float64 `json:"conflict_frac"`
	Other    float64 `json:"other_frac"`
	// BaselineCycles and Speedup are filled by AttachSpeedups when the
	// sweep includes 1-core eager baselines; zero otherwise.
	BaselineCycles int64   `json:"baseline_cycles,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	Err            string  `json:"error,omitempty"`
}

// Record flattens the outcome.
func (o Outcome) Record() Record {
	rec := Record{
		Spec:     o.Run.Spec,
		Workload: o.Run.Workload,
		Mode:     o.Run.Params.Mode.String(),
		Cores:    o.Run.Params.Cores,
		Seed:     o.Run.Seed,
	}
	if o.Err != nil {
		rec.Err = o.Err.Error()
		return rec
	}
	t := o.Res.Totals()
	bd := o.Res.Breakdown()
	rec.Cycles = o.Res.Cycles
	rec.Instrs = t.Instrs
	rec.Commits = t.Commits
	rec.Aborts = t.Aborts
	rec.Nacks = t.Nacks
	rec.Busy = bd[sim.CatBusy]
	rec.Barrier = bd[sim.CatBarrier]
	rec.Conflict = bd[sim.CatConflict]
	rec.Other = bd[sim.CatOther]
	return rec
}

// baseline returns the run's 1-core eager counterpart: same workload,
// seed and machine parameters, with only the mode and core count reset.
func (r Run) baseline() Run {
	b := r
	b.Params.Mode = sim.Eager
	b.Params.Cores = 1
	return b
}

// Baselines returns the 1-core eager baseline run for each distinct
// (workload, seed, machine) in runs, preserving first-appearance order.
// Executing these (the engine deduplicates) gives BaselineIndex its
// denominators.
func Baselines(runs []Run) []Run {
	seen := make(map[key]bool)
	var out []Run
	for _, r := range runs {
		b := r.baseline()
		if k := b.key(); !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out
}

// BaselineIndex resolves a run's 1-core eager baseline cycles. Baselines
// are keyed by their full configuration (workload, seed AND machine
// parameters), so sweeps mixing several machine configurations for the
// same workload normalize each run against its own machine.
type BaselineIndex struct {
	cycles map[key]int64
}

// NewBaselineIndex indexes executed baseline outcomes (failed ones are
// skipped and simply leave their runs without a speedup).
func NewBaselineIndex(baselines []Outcome) *BaselineIndex {
	ix := &BaselineIndex{cycles: make(map[key]int64, len(baselines))}
	for _, o := range baselines {
		ix.Add(o)
	}
	return ix
}

// Add indexes one executed baseline outcome (failed outcomes are skipped).
func (ix *BaselineIndex) Add(o Outcome) {
	if o.Err == nil {
		ix.cycles[o.Run.key()] = o.Res.Cycles
	}
}

// Cycles returns the indexed 1-core eager baseline cycle count for the
// run's configuration, if its baseline was executed and succeeded.
func (ix *BaselineIndex) Cycles(run Run) (int64, bool) {
	bc, ok := ix.cycles[run.baseline().key()]
	return bc, ok
}

// Attach fills rec's BaselineCycles and Speedup from run's baseline, if
// the index has it. rec must be run's record.
func (ix *BaselineIndex) Attach(rec *Record, run Run) {
	if rec.Err != "" || rec.Cycles <= 0 {
		return
	}
	if bc, ok := ix.cycles[run.baseline().key()]; ok {
		rec.BaselineCycles = bc
		rec.Speedup = float64(bc) / float64(rec.Cycles)
	}
}

// UniqueCount returns the number of distinct configurations in runs —
// what the engine will actually simulate after deduplication.
func UniqueCount(runs []Run) int {
	seen := make(map[key]bool, len(runs))
	for _, r := range runs {
		seen[r.key()] = true
	}
	return len(seen)
}

// ParseMode parses a spec-file mode name. Accepted spellings (case- and
// punctuation-insensitive): "eager", "lazy-vb", "retcon".
func ParseMode(s string) (sim.Mode, error) {
	switch strings.ToLower(strings.NewReplacer("-", "", "_", "").Replace(strings.TrimSpace(s))) {
	case "eager":
		return sim.Eager, nil
	case "lazyvb", "lazy":
		return sim.LazyVB, nil
	case "retcon":
		return sim.RetCon, nil
	}
	return 0, fmt.Errorf("sweep: unknown mode %q (want eager, lazy-vb or retcon)", s)
}

// AllModes is the full mode axis in the paper's order.
func AllModes() []sim.Mode { return []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} }

// machines recycles simulators across the engine's runs: each worker
// effectively keeps one warm machine per run in flight instead of
// reconstructing the directory, caches and per-core structures for every
// grid point. Reset guarantees reuse is observationally invisible, so
// streamed output stays byte-identical for any pool size.
var machines sim.MachinePool

// SimRunner returns the simulator-backed task runner: build the workload
// bundle, simulate on a (reused) machine, and verify the final memory
// image against the workload's atomicity invariants (the same oracle the
// root retcon.Run applies). instrument, when non-nil, is invoked with the
// run's machine after Reset and before Run — the plug point for fault
// injection (internal/chaos) and for attaching an event recorder.
//
// Machine lifecycle: the quarantine rule says only a machine whose run
// fully succeeded (simulation AND verification) returns to the pool;
// failure, panic or abandonment Discards it. The task's OnMachine handle
// is released in the same deferred exit, before the pool decision, so a
// belated deadline abandon can never interrupt the machine's next run.
func SimRunner(instrument func(Run, *sim.Machine)) TaskFunc {
	return func(t Task) (*sim.Result, error) {
		r := t.Run
		w, err := workloads.Lookup(r.Workload)
		if err != nil {
			return nil, err
		}
		bundle := w.Build(r.Params.Cores, r.Seed)
		machine, err := machines.Get(r.Params, bundle.Mem, bundle.Programs)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", r.Workload, err)
		}
		succeeded := false
		defer func() {
			// Release the deadline watchdog's ownership handle FIRST:
			// once the machine is pooled it belongs to its next run, and
			// an abandon that fires after this point must be a no-op.
			if t.OnMachine != nil {
				t.OnMachine(nil)
			}
			if succeeded {
				machines.Put(machine)
			} else {
				machines.Discard(machine)
			}
		}()
		if t.OnMachine != nil {
			t.OnMachine(machine)
		}
		if instrument != nil {
			instrument(r, machine)
		}
		res, err := machine.Run()
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", r.Workload, err)
		}
		if bundle.Verify != nil {
			if err := bundle.Verify(bundle.Mem); err != nil {
				return nil, &RunError{
					Kind: FailOracle,
					Msg: fmt.Sprintf("sweep: %s (%v, %d cores, seed %d): %v",
						r.Workload, r.Params.Mode, r.Params.Cores, r.Seed, err),
				}
			}
		}
		succeeded = true
		return res, nil
	}
}

// defaultRunner is the engine's uninstrumented simulator runner.
var defaultRunner = SimRunner(nil)

// PoolStats reports the shared machine pool's lifetime Put/Discard
// counts — the observable face of the quarantine rule, for tests.
func PoolStats() (puts, discards int64) { return machines.Stats() }
