package sweep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// fakeRunner counts executions per configuration and returns a result
// whose cycle count encodes the run's identity, so ordering and dedup are
// observable without simulating anything.
type fakeRunner struct {
	mu    sync.Mutex
	calls map[key]int
}

func (f *fakeRunner) run(t Task) (*sim.Result, error) {
	r := t.Run
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[key]int)
	}
	f.calls[r.key()]++
	f.mu.Unlock()
	return &sim.Result{Cycles: r.Seed*1000 + int64(r.Params.Cores), Cores: r.Params.Cores, Mode: r.Params.Mode}, nil
}

func grid(n int) []Run {
	runs := make([]Run, n)
	for i := range runs {
		p := sim.DefaultParams()
		p.Cores = 1 + i%7
		runs[i] = Run{Workload: "counter", Seed: int64(i), Params: p}
	}
	return runs
}

func TestExecuteOrderAndCompleteness(t *testing.T) {
	f := &fakeRunner{}
	eng := Engine{Workers: 4, Tasks: f.run}
	runs := grid(50)
	outs := eng.Execute(runs)
	if len(outs) != len(runs) {
		t.Fatalf("%d outcomes for %d runs", len(outs), len(runs))
	}
	for i, o := range outs {
		if o.Run != runs[i] {
			t.Fatalf("outcome %d is for run %+v, want %+v", i, o.Run, runs[i])
		}
		if o.Err != nil || o.Res == nil {
			t.Fatalf("outcome %d: err=%v res=%v", i, o.Err, o.Res)
		}
		if want := runs[i].Seed*1000 + int64(runs[i].Params.Cores); o.Res.Cycles != want {
			t.Fatalf("outcome %d has cycles %d, want %d (result/run mismatch)", i, o.Res.Cycles, want)
		}
	}
}

func TestExecuteDeduplicates(t *testing.T) {
	f := &fakeRunner{}
	eng := Engine{Workers: 4, Tasks: f.run}
	base := grid(5)
	// Triple every run, interleaved.
	var runs []Run
	for i := 0; i < 3; i++ {
		runs = append(runs, base...)
	}
	outs := eng.Execute(runs)
	if len(outs) != 15 {
		t.Fatalf("%d outcomes, want 15", len(outs))
	}
	for k, n := range f.calls {
		if n != 1 {
			t.Errorf("config %+v simulated %d times, want 1", k, n)
		}
	}
	if len(f.calls) != 5 {
		t.Errorf("%d unique executions, want 5", len(f.calls))
	}
	// Duplicates share the representative's result.
	for i := 0; i < 5; i++ {
		if outs[i].Res != outs[i+5].Res || outs[i].Res != outs[i+10].Res {
			t.Errorf("duplicate run %d did not share its result", i)
		}
	}
}

func TestExecuteStreamIsInputOrdered(t *testing.T) {
	f := &fakeRunner{}
	eng := Engine{Workers: 8, Tasks: f.run}
	runs := grid(40)
	var got []Run
	eng.ExecuteStream(runs, func(o Outcome) { got = append(got, o.Run) })
	for i := range runs {
		if got[i] != runs[i] {
			t.Fatalf("stream position %d got %+v, want %+v", i, got[i], runs[i])
		}
	}
}

func TestExecutePropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	var n atomic.Int64
	eng := Engine{Workers: 2, Tasks: func(t Task) (*sim.Result, error) {
		if n.Add(1)%2 == 0 {
			return nil, fmt.Errorf("run %d: %w", t.Run.Seed, boom)
		}
		return &sim.Result{Cycles: 1}, nil
	}}
	outs := eng.Execute(grid(6))
	err := FirstErr(outs)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("FirstErr = %v, want wrapped boom", err)
	}
	var failed int
	for _, o := range outs {
		if o.Err != nil {
			failed++
		}
	}
	if failed == 0 || failed == len(outs) {
		t.Fatalf("%d of %d failed; want a mix", failed, len(outs))
	}
}

func TestExecuteEmptyAndDefaultEngine(t *testing.T) {
	var eng Engine // zero value: GOMAXPROCS workers, real simulator
	if outs := eng.Execute(nil); len(outs) != 0 {
		t.Fatalf("empty grid returned %d outcomes", len(outs))
	}
	if eng.workers() < 1 {
		t.Fatal("default worker count must be >= 1")
	}
}

// TestExecuteRealSimulatorDeterminism runs a tiny real grid twice with
// different pool sizes and requires identical per-run cycle counts.
func TestExecuteRealSimulatorDeterminism(t *testing.T) {
	p := sim.DefaultParams()
	p.Cores = 2
	p2 := p
	p2.Mode = sim.RetCon
	runs := []Run{
		{Workload: "counter", Seed: 1, Params: p},
		{Workload: "counter", Seed: 1, Params: p2},
		{Workload: "counter", Seed: 2, Params: p},
	}
	serial := Engine{Workers: 1}
	parallel := Engine{Workers: 4}
	a := serial.Execute(runs)
	b := parallel.Execute(runs)
	for i := range runs {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("run %d failed: %v / %v", i, a[i].Err, b[i].Err)
		}
		if a[i].Res.Cycles != b[i].Res.Cycles {
			t.Fatalf("run %d: %d cycles serial vs %d parallel", i, a[i].Res.Cycles, b[i].Res.Cycles)
		}
	}
}

func TestBaselinesAndSpeedups(t *testing.T) {
	p := sim.DefaultParams()
	p.Cores = 8
	p.Mode = sim.RetCon
	runs := []Run{
		{Workload: "counter", Seed: 1, Params: p},
		{Workload: "counter", Seed: 1, Params: p}, // duplicate: one baseline
		{Workload: "labyrinth", Seed: 2, Params: p},
	}
	bases := Baselines(runs)
	if len(bases) != 2 {
		t.Fatalf("%d baselines, want 2", len(bases))
	}
	for _, b := range bases {
		if b.Params.Cores != 1 || b.Params.Mode != sim.Eager {
			t.Fatalf("baseline %+v is not 1-core eager", b)
		}
	}

	ix := NewBaselineIndex([]Outcome{
		{Run: bases[0], Res: &sim.Result{Cycles: 1000}},
		{Run: bases[1], Res: &sim.Result{Cycles: 1200}},
	})
	rec0 := Record{Workload: "counter", Seed: 1, Mode: "RetCon", Cycles: 500}
	ix.Attach(&rec0, runs[0])
	if rec0.Speedup != 2.0 || rec0.BaselineCycles != 1000 {
		t.Errorf("rec 0: %+v", rec0)
	}
	rec1 := Record{Workload: "labyrinth", Seed: 2, Mode: "RetCon", Cycles: 400}
	ix.Attach(&rec1, runs[2])
	if rec1.Speedup != 3.0 {
		t.Errorf("rec 1: %+v", rec1)
	}
	// A run whose machine params differ from every indexed baseline gets
	// no speedup — baselines are keyed by full configuration, so a
	// different machine never borrows another machine's denominator.
	other := runs[0]
	other.Params.DRAM = 999
	rec2 := Record{Workload: "counter", Seed: 1, Mode: "RetCon", Cycles: 100}
	ix.Attach(&rec2, other)
	if rec2.Speedup != 0 {
		t.Errorf("rec 2 must have no speedup: %+v", rec2)
	}

	if n := UniqueCount(runs); n != 2 {
		t.Errorf("UniqueCount = %d, want 2", n)
	}
}

func TestOutcomeRecord(t *testing.T) {
	p := sim.DefaultParams()
	p.Cores = 4
	p.Mode = sim.RetCon
	run := Run{Spec: "s", Workload: "counter", Seed: 3, Params: p}
	res := &sim.Result{Cycles: 42, Cores: 4, Mode: sim.RetCon, PerCore: []sim.CoreStats{{Commits: 7, Aborts: 2, Instrs: 100}}}
	rec := Outcome{Run: run, Res: res}.Record()
	if rec.Spec != "s" || rec.Workload != "counter" || rec.Mode != "RetCon" ||
		rec.Cores != 4 || rec.Seed != 3 || rec.Cycles != 42 ||
		rec.Commits != 7 || rec.Aborts != 2 || rec.Instrs != 100 {
		t.Errorf("record = %+v", rec)
	}
	errRec := Outcome{Run: run, Err: errors.New("nope")}.Record()
	if errRec.Err != "nope" || errRec.Cycles != 0 {
		t.Errorf("error record = %+v", errRec)
	}
}

// TestDispatch covers the generic pool directly: results are delivered
// per index, get blocks until ready, and wait drains the workers.
func TestDispatch(t *testing.T) {
	n := 50
	get, wait := Dispatch(n, 4, func(i int) int { return i * i })
	// Consume out of order on purpose.
	for i := n - 1; i >= 0; i-- {
		if got := get(i); got != i*i {
			t.Fatalf("get(%d) = %d, want %d", i, got, i*i)
		}
	}
	wait()
	// Repeat gets are cheap and stable after completion.
	if get(7) != 49 {
		t.Fatal("repeat get must return the cached result")
	}
	// Zero workers falls back to GOMAXPROCS; n smaller than workers is fine.
	get2, wait2 := Dispatch(1, 0, func(int) string { return "x" })
	if get2(0) != "x" {
		t.Fatal("single-item dispatch")
	}
	wait2()
}
