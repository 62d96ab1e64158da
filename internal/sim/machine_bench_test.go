// Steady-state microbenchmarks of the simulator's hot paths, run the way
// the grid harnesses run them: one machine, Reset between runs, workload
// bundles rebuilt per run. `go test -bench . -benchmem ./internal/sim/`
// reports both wall clock and allocations; the allocs-per-cycle regression
// test below pins the post-flattening allocation budget so the win cannot
// silently rot.
package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// benchMachine runs the configuration once per iteration on a reused
// machine, timing only the cycle loop (bundle build and Reset excluded).
func benchMachine(b *testing.B, wl string, mode sim.Mode, cores int) {
	w, err := workloads.Lookup(wl)
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Cores = cores
	p.Mode = mode
	var m *sim.Machine
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bundle := w.Build(cores, 1)
		if m == nil {
			m, err = sim.New(p, bundle.Mem, bundle.Programs)
		} else {
			err = m.Reset(p, bundle.Mem, bundle.Programs)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/float64(b.Elapsed().Nanoseconds())*1000, "Mcycles/s")
}

// BenchmarkMemoryAccess exercises the eager-mode load/store path under
// heavy contention: every access runs conflict detection, and most are
// NACKed (the per-access hot path the flat directory and inline spec sets
// target; the event loop parks the NACKed cores and charges their
// retries in bulk).
func BenchmarkMemoryAccess(b *testing.B) {
	benchMachine(b, "counter", sim.Eager, 8)
}

// BenchmarkCommitRepair exercises RETCON's symbolic tracking and the
// Figure 7 pre-commit repair: every transaction tracks the contended
// block, buffers symbolic stores, and drains them at commit in address
// order straight off the sorted inline buffers.
func BenchmarkCommitRepair(b *testing.B) {
	benchMachine(b, "counter", sim.RetCon, 16)
}

// BenchmarkLockstepStep is the lockstep reference scheduler's per-cycle
// tick on counter eager@8: every cycle visits every core, so the cost of
// one core-cycle (a halted or stalled core's charge, or one executed
// instruction) is the unit it reports.
func BenchmarkLockstepStep(b *testing.B) {
	w, err := workloads.Lookup("counter")
	if err != nil {
		b.Fatal(err)
	}
	const cores = 8
	p := sim.DefaultParams()
	p.Cores = cores
	p.Mode = sim.Eager
	p.Sched = sim.SchedLockstep
	m := new(sim.Machine)
	b.ReportAllocs()
	var coreCycles int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bundle := w.Build(cores, 1)
		if err := m.Reset(p, bundle.Mem, bundle.Programs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		coreCycles += res.Cycles * cores
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(coreCycles), "ns/core-cycle")
}

// BenchmarkMachineReset measures run-to-run machine reuse itself: the
// per-run cost grid harnesses pay instead of sim.New's full construction.
func BenchmarkMachineReset(b *testing.B) {
	w, err := workloads.Lookup("counter")
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Cores = 32
	bundle := w.Build(32, 1)
	m, err := sim.New(p, bundle.Mem, bundle.Programs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(p, bundle.Mem, bundle.Programs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocsPerCycleRegression pins the steady-state allocation budget of
// Reset+Run on a reused machine, per mode. After the symbolic-path
// flattening (epoch-reset predictor table, touched-register mask,
// Configure-time buffer preallocation) a steady-state run allocates
// exactly 2 objects in every mode — the Result and its presized PerCore
// slice — so RetCon's per-cycle budget is pinned at 2x eager's (the
// acceptance margin for symbolic tracking) and both sit far below the
// pre-flattening measurements (~0.0065 allocs/cycle eager, ~0.177
// RetCon). A reintroduced per-access, per-commit or per-Run heap
// allocation fails this test long before it shows up in wall clock.
//
// The counter workload is used because its timing is value-independent:
// re-running on the mutated image is deterministic, so the bundle build
// can stay outside the measured closure.
//
// The static twin of this test is the hotpathalloc analyzer (run by
// cmd/retcon-lint / make lint): the functions this budget exercises carry
// //retcon:hotpath annotations — runEvent, wakeWaiters, runLocal,
// settle (sched.go), Step, chargeCycles (machine.go), memAccess,
// coherentRequest (memory.go), commit, commitRepair, finishCommit
// (commit.go) and Predictor.Tracks/find (htm/predictor.go) — so an
// allocation reintroduced into any of them is named at lint time, and
// this test catches whatever slips past the static rules (indirect
// calls, growth in un-annotated callees). Keep the two sets in sync:
// annotate a function when its allocations would land in this budget.
// The telemetry rows pin the observability layer's cost contract both
// ways. With no recorder attached (the rows above — emission sites are
// always compiled in) the budget is unchanged: a disabled decision
// point is one nil check. With a recorder attached (record=true rows)
// the budget is STILL unchanged: Emit appends a value into the
// recorder's pre-sized ring and flushes batches to the sink, so an
// instrumented steady-state run allocates exactly what an
// uninstrumented one does.
func TestAllocsPerCycleRegression(t *testing.T) {
	for _, tc := range []struct {
		wl     string
		mode   sim.Mode
		cores  int
		sched  sim.SchedKind
		budget float64 // allocs per simulated cycle
		record bool    // attach a persistent telemetry recorder
	}{
		{"counter", sim.Eager, 8, sim.SchedEvent, 0.0001, false},
		{"counter", sim.RetCon, 16, sim.SchedEvent, 0.0002, false},
		{"counter", sim.LazyVB, 16, sim.SchedEvent, 0.0002, false},
		{"counter", sim.Eager, 8, sim.SchedEvent, 0.0001, true},
		{"counter", sim.RetCon, 16, sim.SchedEvent, 0.0002, true},
		{"counter", sim.Eager, 8, sim.SchedLockstep, 0.0001, false},
		{"counter", sim.RetCon, 16, sim.SchedLockstep, 0.0002, false},
	} {
		w, err := workloads.Lookup(tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		p := sim.DefaultParams()
		p.Cores = tc.cores
		p.Mode = tc.mode
		p.Sched = tc.sched
		bundle := w.Build(tc.cores, 1)
		m, err := sim.New(p, bundle.Mem, bundle.Programs)
		if err != nil {
			t.Fatal(err)
		}
		// The recorder (and its ring) is built once and re-attached after
		// every Reset, the way a long-lived harness would hold it; only
		// steady-state emission cost lands inside the measured closure.
		var rec *telemetry.Recorder
		if tc.record {
			rec = telemetry.NewRecorder(discardSink{}, 0)
			m.Record(rec)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err) // warm-up: grow buffers to steady state
		}
		var cycles int64
		allocs := testing.AllocsPerRun(5, func() {
			if err := m.Reset(p, bundle.Mem, bundle.Programs); err != nil {
				t.Fatal(err)
			}
			if rec != nil {
				m.Record(rec)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			cycles = res.Cycles
		})
		perCycle := allocs / float64(cycles)
		t.Logf("%s/%v/%d/%v record=%v: %.1f allocs per run, %d cycles, %.6f allocs/cycle (budget %.6f)",
			tc.wl, tc.mode, tc.cores, tc.sched, tc.record, allocs, cycles, perCycle, tc.budget)
		if perCycle > tc.budget {
			t.Errorf("%s/%v/%d/%v record=%v: %.6f allocs/cycle exceeds the steady-state budget %.6f",
				tc.wl, tc.mode, tc.cores, tc.sched, tc.record, perCycle, tc.budget)
		}
	}
}

// discardSink drops flushed batches; it isolates emission cost from
// any wire encoding in the allocation measurement.
type discardSink struct{}

func (discardSink) WriteEvents([]telemetry.Event) error { return nil }

// newFootprint returns the bytes and heap objects sim.New allocates for
// a counter bundle at the given core count under DefaultParams. Nearly
// all of it is the per-core cache line arrays (Table 1's 64 KB L1 and
// 1 MB L2 are 1,024 and 16,384 lines per core).
func newFootprint(t *testing.T, cores int) (bytes, objects uint64) {
	t.Helper()
	w, err := workloads.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Cores = cores
	bundle := w.Build(cores, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := sim.New(p, bundle.Mem, bundle.Programs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestMachineFootprint pins the size of a freshly built 64-core Table 1
// machine: 8-byte cache lines, 16-byte directory entries and per-core
// structures held by value. Storing each line as two int64s and holding
// the hierarchy, caches, Tx, spec set, RETCON state and predictor behind
// pointers cost 17.7 MiB in 1,036 objects.
func TestMachineFootprint(t *testing.T) {
	const maxBytes, maxObjects = 9.5 * (1 << 20), 550
	for _, cores := range []int{32, 64} {
		bytes, objects := newFootprint(t, cores)
		t.Logf("sim.New at %d cores: %.2f MiB in %d objects", cores, float64(bytes)/(1<<20), objects)
		if cores == 64 && (bytes > maxBytes || objects > maxObjects) {
			t.Errorf("sim.New at 64 cores allocated %.2f MiB in %d objects, want at most 9.5 MiB and %d objects",
				float64(bytes)/(1<<20), objects, maxObjects)
		}
	}
}
