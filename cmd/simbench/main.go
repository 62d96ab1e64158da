// Command simbench records the simulator's own performance trajectory:
// wall-clock timings of the cycle loop under the lockstep reference
// scheduler and the event-driven time-skip scheduler, on every paper
// workload in both eager and RetCon modes, plus steady-state memory
// behavior (allocations and bytes per thousand simulated cycles, measured
// on a run-to-run reused machine) and a per-phase cycle breakdown that
// localizes where simulated time goes. `make bench` runs it and writes
// BENCH_sim.json at the repository root, so the trajectory is versioned
// alongside the code that moved it; `make bench-check` replays the
// recorded budgets against the current build.
//
// Every timed pair doubles as a differential check: the two schedulers'
// Results must be deeply equal or simbench exits non-zero. Lockstep and
// event reps are interleaved round-robin so machine noise hits both
// schedulers alike instead of biasing the ratio.
//
// Usage:
//
//	simbench                        # summary table to stdout
//	simbench -out BENCH_sim.json    # also write the JSON record
//	simbench -reps 5                # best-of-5 timings
//	simbench -workloads counter,genome -modes RetCon   # filter the grid
//	simbench -check BENCH_sim.json  # enforce recorded + re-measured budgets
//	simbench -cpuprofile cpu.out    # pprof the timed runs (runs carry
//	                                # workload/mode/cores/sched labels for
//	                                # -tagfocus)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// cases are the timed configurations: every paper workload in eager and
// RetCon modes, covering both stall-heavy machines (NACK retries, abort
// backoffs, DRAM misses, barrier imbalance) where the event scheduler's
// time skipping pays, and busy-dominated machines (genome, RetCon
// counter) where it has the fewest cycles to skip.
var cases = []struct {
	workload string
	mode     sim.Mode
	cores    int
}{
	{"counter", sim.Eager, 8},
	{"counter", sim.Eager, 32},
	{"counter", sim.Eager, 64},
	{"counter", sim.RetCon, 16},
	{"counter", sim.RetCon, 32},
	{"labyrinth", sim.Eager, 8},
	{"labyrinth", sim.Eager, 64},
	{"labyrinth", sim.RetCon, 8},
	{"ssca2", sim.Eager, 64},
	{"ssca2", sim.RetCon, 64},
	{"yada", sim.Eager, 64},
	{"yada", sim.RetCon, 64},
	{"python_opt", sim.Eager, 32},
	{"python_opt", sim.RetCon, 32},
	{"genome", sim.Eager, 32}, // busy-dominated control: little to skip
	{"genome", sim.RetCon, 32},
}

// Budgets enforced by -check (and the CI benchmark-smoke job, via `make
// bench-check`): recorded entries must meet minRecordedSpeedup exactly;
// re-measured speedups get reMeasureTolerance of headroom for machine
// noise. Alloc ceilings are per-mode allocs-per-kcycle, deterministic in
// steady state, so they are enforced strictly on both the recorded file
// and the re-measured runs — RetCon's ceiling is 2× eager's, the margin
// the symbolic path is budgeted to stay within.
const (
	minRecordedSpeedup = 1.0
	reMeasureTolerance = 0.80
)

func allocCeiling(mode string) float64 {
	if mode == "eager" {
		return 0.06
	}
	return 0.12 // RetCon and lazy-vb: within 2× the eager budget
}

// Phases is the per-phase breakdown of one entry's simulated cycles, from
// the event-scheduler Result's category accounting: the fraction of
// attributed core-cycles spent executing, in conflict stalls (NACK,
// backoff), at barriers, and in other waits, plus the share of cycles
// inside RETCON's pre-commit repair. Future perf work can localize a
// regression (exec path vs commit/repair path vs scheduler) from the
// record alone, without a full rerun.
type Phases struct {
	Busy     float64 `json:"busy"`
	Conflict float64 `json:"conflict"`
	Barrier  float64 `json:"barrier"`
	Other    float64 `json:"other"`
	// CommitRepairShare is RETCON pre-commit repair cycles as a fraction
	// of all attributed core-cycles (0 for eager).
	CommitRepairShare float64 `json:"commit_repair_share"`
}

// Entry is one configuration's timing record.
type Entry struct {
	Workload   string  `json:"workload"`
	Mode       string  `json:"mode"`
	Cores      int     `json:"cores"`
	Seed       int64   `json:"seed"`
	Cycles     int64   `json:"cycles"`
	LockstepMS float64 `json:"lockstep_ms"`
	EventMS    float64 `json:"event_ms"`
	Speedup    float64 `json:"speedup"` // lockstep_ms / event_ms
	// Steady-state memory behavior of the event-scheduler run on a reused
	// machine (Machine.Reset between runs, as the sweep and fuzz harnesses
	// execute): heap allocations and bytes per thousand simulated cycles,
	// minimum over reps.
	AllocsPerKCycle float64 `json:"allocs_per_kcycle"`
	BytesPerKCycle  float64 `json:"bytes_per_kcycle"`
	Phases          Phases  `json:"phases"`
}

// File is the BENCH_sim.json schema. v3 adds RetCon entries for every
// workload and the per-phase breakdown (schema "retcon-simbench/v3"); v2
// added the per-kcycle allocation columns.
type File struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	Reps      int     `json:"reps"`
	Entries   []Entry `json:"entries"`
}

const schema = "retcon-simbench/v3"

func main() {
	out := flag.String("out", "", "write the JSON record to this file (e.g. BENCH_sim.json)")
	reps := flag.Int("reps", 3, "repetitions per configuration (best time wins)")
	seed := flag.Int64("seed", 1, "workload input seed")
	workloadsFlag := flag.String("workloads", "", "comma-separated workload filter (default: all)")
	modesFlag := flag.String("modes", "", "comma-separated mode filter, e.g. eager,RetCon (default: all)")
	check := flag.String("check", "", "enforce budgets: validate this recorded BENCH file, then re-measure the (filtered) grid against the speedup and alloc budgets")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the runs to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}

	keepWorkload, err := csvFilter(*workloadsFlag, func(s string) (string, error) { return s, nil })
	if err != nil {
		fail(err)
	}
	keepMode, err := csvFilter(*modesFlag, func(s string) (string, error) {
		m, err := sweep.ParseMode(s)
		if err != nil {
			return "", err
		}
		return m.String(), nil
	})
	if err != nil {
		fail(err)
	}

	if *check != "" {
		if err := checkRecorded(*check); err != nil {
			fail(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	rec := File{Schema: schema, GoVersion: runtime.Version(), Reps: *reps}
	fmt.Printf("%-12s %-8s %5s %14s %12s %12s %8s %10s %10s  %s\n",
		"workload", "mode", "cores", "cycles", "lockstep", "event", "speedup", "allocs/kc", "bytes/kc", "phases busy/conf/barr/other/repair")
	// One machine, reused across every rep of every configuration, is the
	// steady state the sweep/fuzz harnesses run in — and doubles as an
	// end-to-end check that Reset reuse is observationally invisible.
	var machine *sim.Machine
	violations := 0
	for _, c := range cases {
		if !keepWorkload(c.workload) || !keepMode(c.mode.String()) {
			continue
		}
		w, err := workloads.Lookup(c.workload)
		if err != nil {
			fail(err)
		}
		var times [2]time.Duration // indexed by SchedKind
		var results [2]*sim.Result
		allocsPerKC, bytesPerKC := 0.0, 0.0
		// Interleave the schedulers rep by rep: a load spike on the host
		// hits both sides of the ratio instead of one.
		for r := 0; r < *reps; r++ {
			for _, kind := range []sim.SchedKind{sim.SchedLockstep, sim.SchedEvent} {
				bundle := w.Build(c.cores, *seed)
				p := sim.DefaultParams()
				p.Cores = c.cores
				p.Mode = c.mode
				p.Sched = kind
				if machine == nil {
					machine, err = sim.New(p, bundle.Mem, bundle.Programs)
				} else {
					err = machine.Reset(p, bundle.Mem, bundle.Programs)
				}
				if err != nil {
					fail(err)
				}
				var res *sim.Result
				var runErr error
				var elapsed time.Duration
				var msBefore, msAfter runtime.MemStats
				labels := pprof.Labels(
					"workload", c.workload, "mode", c.mode.String(),
					"cores", fmt.Sprint(c.cores), "sched", kind.String())
				pprof.Do(context.Background(), labels, func(context.Context) {
					// MemStats reads bracket Run alone, so the alloc columns
					// measure the cycle loop itself, not harness bookkeeping.
					runtime.ReadMemStats(&msBefore)
					start := time.Now()
					res, runErr = machine.Run()
					elapsed = time.Since(start)
					runtime.ReadMemStats(&msAfter)
				})
				if runErr != nil {
					fail(fmt.Errorf("%s/%v/%d sched=%v: %w", c.workload, c.mode, c.cores, kind, runErr))
				}
				if bundle.Verify != nil {
					if err := bundle.Verify(bundle.Mem); err != nil {
						fail(fmt.Errorf("%s/%v/%d sched=%v: %w", c.workload, c.mode, c.cores, kind, err))
					}
				}
				if times[kind] == 0 || elapsed < times[kind] {
					times[kind] = elapsed
				}
				if kind == sim.SchedEvent {
					kc := float64(res.Cycles) / 1000
					apk := float64(msAfter.Mallocs-msBefore.Mallocs) / kc
					bpk := float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / kc
					if r == 0 || apk < allocsPerKC {
						allocsPerKC = apk
					}
					if r == 0 || bpk < bytesPerKC {
						bytesPerKC = bpk
					}
				}
				results[kind] = res
			}
		}
		if !reflect.DeepEqual(results[sim.SchedLockstep], results[sim.SchedEvent]) {
			fail(fmt.Errorf("%s/%v/%d: schedulers produced different Results", c.workload, c.mode, c.cores))
		}
		e := Entry{
			Workload:        c.workload,
			Mode:            c.mode.String(),
			Cores:           c.cores,
			Seed:            *seed,
			Cycles:          results[sim.SchedEvent].Cycles,
			LockstepMS:      float64(times[sim.SchedLockstep].Microseconds()) / 1000,
			EventMS:         float64(times[sim.SchedEvent].Microseconds()) / 1000,
			AllocsPerKCycle: allocsPerKC,
			BytesPerKCycle:  bytesPerKC,
			Phases:          phasesOf(results[sim.SchedEvent]),
		}
		if e.EventMS > 0 {
			e.Speedup = e.LockstepMS / e.EventMS
		}
		rec.Entries = append(rec.Entries, e)
		fmt.Printf("%-12s %-8s %5d %14d %10.1fms %10.1fms %7.2fx %10.3f %10.1f  %.2f/%.2f/%.2f/%.2f/%.3f\n",
			e.Workload, e.Mode, e.Cores, e.Cycles, e.LockstepMS, e.EventMS, e.Speedup,
			e.AllocsPerKCycle, e.BytesPerKCycle,
			e.Phases.Busy, e.Phases.Conflict, e.Phases.Barrier, e.Phases.Other, e.Phases.CommitRepairShare)
		if *check != "" {
			if e.Speedup < reMeasureTolerance {
				fmt.Fprintf(os.Stderr, "simbench: BUDGET VIOLATION %s/%s@%d: re-measured speedup %.2f < %.2f\n",
					e.Workload, e.Mode, e.Cores, e.Speedup, reMeasureTolerance)
				violations++
			}
			if ceil := allocCeiling(e.Mode); e.AllocsPerKCycle > ceil {
				fmt.Fprintf(os.Stderr, "simbench: BUDGET VIOLATION %s/%s@%d: allocs/kcycle %.4f > %.4f\n",
					e.Workload, e.Mode, e.Cores, e.AllocsPerKCycle, ceil)
				violations++
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if violations > 0 {
		fail(fmt.Errorf("%d budget violation(s)", violations))
	}
	if *check != "" {
		fmt.Println("bench-check: recorded and re-measured budgets hold")
	}
}

// phasesOf summarizes an event-scheduler Result's category accounting.
func phasesOf(res *sim.Result) Phases {
	bd := res.Breakdown()
	var attributed int64
	t := res.Totals()
	for _, v := range t.Cycles {
		attributed += v
	}
	p := Phases{
		Busy:     bd[sim.CatBusy],
		Conflict: bd[sim.CatConflict],
		Barrier:  bd[sim.CatBarrier],
		Other:    bd[sim.CatOther],
	}
	if attributed > 0 {
		p.CommitRepairShare = float64(res.Retcon.SumCommitCycles) / float64(attributed)
	}
	return p
}

// checkRecorded enforces the recorded file's budgets: schema v3, every
// entry's speedup at least minRecordedSpeedup, and allocs within the
// per-mode ceiling.
func checkRecorded(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec File
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != schema {
		return fmt.Errorf("%s: schema %q, want %q (regenerate with make bench)", path, rec.Schema, schema)
	}
	bad := 0
	for _, e := range rec.Entries {
		if e.Speedup < minRecordedSpeedup {
			fmt.Fprintf(os.Stderr, "simbench: recorded %s/%s@%d speedup %.2f < %.2f\n",
				e.Workload, e.Mode, e.Cores, e.Speedup, minRecordedSpeedup)
			bad++
		}
		if ceil := allocCeiling(e.Mode); e.AllocsPerKCycle > ceil {
			fmt.Fprintf(os.Stderr, "simbench: recorded %s/%s@%d allocs/kcycle %.4f > %.4f\n",
				e.Workload, e.Mode, e.Cores, e.AllocsPerKCycle, ceil)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%s: %d recorded budget violation(s)", path, bad)
	}
	fmt.Printf("recorded budgets hold for %d entries in %s\n", len(rec.Entries), path)
	return nil
}

// csvFilter builds a membership predicate from a comma-separated flag,
// canonicalizing each element (everything passes when the flag is empty).
func csvFilter(flagVal string, canon func(string) (string, error)) (func(string) bool, error) {
	if strings.TrimSpace(flagVal) == "" {
		return func(string) bool { return true }, nil
	}
	set := map[string]bool{}
	for _, part := range strings.Split(flagVal, ",") {
		c, err := canon(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		set[c] = true
	}
	return func(s string) bool { return set[s] }, nil
}
