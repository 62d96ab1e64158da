package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FailKind
	}{
		{"nil", nil, FailNone},
		{"plain", errors.New("boom"), FailError},
		{"wrapped plain", fmt.Errorf("ctx: %w", errors.New("boom")), FailError},
		{"run error panic", &RunError{Kind: FailPanic, Msg: "p"}, FailPanic},
		{"run error oracle", &RunError{Kind: FailOracle, Msg: "o"}, FailOracle},
		{"wrapped run error", fmt.Errorf("ctx: %w", &RunError{Kind: FailDeadline, Msg: "d"}), FailDeadline},
		{"watchdog", &sim.WatchdogError{Cycles: 10}, FailWatchdog},
		{"wrapped watchdog", fmt.Errorf("sweep: counter: %w", &sim.WatchdogError{Cycles: 10}), FailWatchdog},
		{"interrupted", &sim.InterruptedError{Cycles: 5}, FailDeadline},
		{"sentinel", ErrInterrupted, FailInterrupted},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
	// Only watchdog trips and oracle divergences are deterministic (never
	// retried); everything else is possibly transient.
	for k, want := range map[FailKind]bool{
		FailNone: false, FailError: false, FailPanic: false,
		FailWatchdog: true, FailDeadline: false, FailOracle: true,
		FailInterrupted: false,
	} {
		if k.Deterministic() != want {
			t.Errorf("%v.Deterministic() = %v, want %v", k, !want, want)
		}
	}
	// String/parse round trip: journal entries store the kind by label.
	for _, k := range []FailKind{FailNone, FailError, FailPanic, FailWatchdog, FailDeadline, FailOracle, FailInterrupted} {
		if got := parseFailKind(k.String()); got != k {
			t.Errorf("parseFailKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if parseFailKind("no-such-kind") != FailError {
		t.Error("unknown kind label must fall back to FailError")
	}
}

// TestPanicIsolation: a panicking task poisons exactly its own outcome;
// the worker pool and the rest of the grid complete, and the rendered
// error is deterministic (no stack in Error()).
func TestPanicIsolation(t *testing.T) {
	boom := func(tk Task) (*sim.Result, error) {
		if tk.Run.Seed == 3 {
			panic(fmt.Sprintf("injected %d", tk.Run.Seed))
		}
		return &sim.Result{Cycles: tk.Run.Seed}, nil
	}
	eng := Engine{Workers: 4, Tasks: boom}
	outs := eng.Execute(grid(8))
	for _, o := range outs {
		if o.Run.Seed != 3 {
			if o.Err != nil {
				t.Errorf("seed %d failed: %v", o.Run.Seed, o.Err)
			}
			continue
		}
		var re *RunError
		if !errors.As(o.Err, &re) || re.Kind != FailPanic {
			t.Fatalf("panic outcome = %v", o.Err)
		}
		if !strings.Contains(re.Msg, "panic: injected 3") || !strings.Contains(re.Msg, "counter") {
			t.Errorf("panic message = %q", re.Msg)
		}
		if len(re.Stack) == 0 {
			t.Error("panic RunError must carry the stack for diagnostics")
		}
		if strings.Contains(re.Error(), "goroutine") {
			t.Error("Error() must not include the stack (breaks byte-determinism)")
		}
	}
}

// attemptCounter counts attempts per run identity.
type attemptCounter struct {
	mu    sync.Mutex
	calls map[key]int
}

func (a *attemptCounter) bump(r Run) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.calls == nil {
		a.calls = make(map[key]int)
	}
	a.calls[r.key()]++
	return a.calls[r.key()]
}

// TestRetryTransient: possibly-transient failures are retried up to
// Engine.Retries times and can recover.
func TestRetryTransient(t *testing.T) {
	ac := &attemptCounter{}
	eng := Engine{Workers: 2, Retries: 1, RetryBackoff: time.Millisecond,
		Tasks: func(tk Task) (*sim.Result, error) {
			ac.bump(tk.Run)
			if tk.Attempt == 0 {
				return nil, fmt.Errorf("transient %d", tk.Run.Seed)
			}
			return &sim.Result{Cycles: tk.Run.Seed}, nil
		}}
	outs := eng.Execute(grid(4))
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("seed %d not recovered: %v", o.Run.Seed, o.Err)
		}
	}
	for k, n := range ac.calls {
		if n != 2 {
			t.Errorf("run %+v attempted %d times, want 2", k, n)
		}
	}
}

// TestRetryExhausted: a persistently failing run surfaces its last error
// after Retries+1 attempts.
func TestRetryExhausted(t *testing.T) {
	ac := &attemptCounter{}
	eng := Engine{Workers: 1, Retries: 2, RetryBackoff: time.Millisecond,
		Tasks: func(tk Task) (*sim.Result, error) {
			ac.bump(tk.Run)
			return nil, fmt.Errorf("still broken (attempt %d)", tk.Attempt)
		}}
	outs := eng.Execute(grid(1))
	if outs[0].Err == nil || !strings.Contains(outs[0].Err.Error(), "attempt 2") {
		t.Fatalf("err = %v, want the final attempt's error", outs[0].Err)
	}
	for _, n := range ac.calls {
		if n != 3 {
			t.Errorf("attempted %d times, want 3 (1 + 2 retries)", n)
		}
	}
}

// TestNoRetryDeterministic: watchdog trips and oracle divergences are
// facts about the configuration — retrying would repeat the identical
// simulation, so the engine must not.
func TestNoRetryDeterministic(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"watchdog", fmt.Errorf("sweep: counter: %w", &sim.WatchdogError{Cycles: 99, PCs: []int{1}})},
		{"oracle", &RunError{Kind: FailOracle, Msg: "lost updates"}},
	} {
		ac := &attemptCounter{}
		eng := Engine{Workers: 1, Retries: 5, RetryBackoff: time.Millisecond,
			Tasks: func(tk Task) (*sim.Result, error) {
				ac.bump(tk.Run)
				return nil, c.err
			}}
		outs := eng.Execute(grid(1))
		if outs[0].Err == nil {
			t.Fatalf("%s: expected failure", c.name)
		}
		for _, n := range ac.calls {
			if n != 1 {
				t.Errorf("%s: attempted %d times, want 1 (deterministic failures never retry)", c.name, n)
			}
		}
	}
}

// TestDeadlineAbandon: an attempt that outlives Engine.Deadline is
// abandoned with a deterministic FailDeadline error while fast runs are
// untouched.
func TestDeadlineAbandon(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	eng := Engine{Workers: 2, Deadline: 50 * time.Millisecond,
		Tasks: func(tk Task) (*sim.Result, error) {
			if tk.Run.Seed == 1 {
				<-gate // hard hang
			}
			return &sim.Result{Cycles: tk.Run.Seed}, nil
		}}
	outs := eng.Execute(grid(3))
	for _, o := range outs {
		if o.Run.Seed == 1 {
			var re *RunError
			if !errors.As(o.Err, &re) || re.Kind != FailDeadline {
				t.Fatalf("hung run outcome = %v", o.Err)
			}
			if !strings.Contains(re.Msg, "exceeded the 50ms wall-clock deadline") {
				t.Errorf("deadline message = %q", re.Msg)
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("fast run seed %d failed: %v", o.Run.Seed, o.Err)
		}
	}
}

// buildMachine constructs a real 2-core counter machine for ticket
// tests.
func buildMachine(t *testing.T) *sim.Machine {
	t.Helper()
	w, err := workloads.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	b := w.Build(2, 1)
	p := sim.DefaultParams()
	p.Cores = 2
	m, err := sim.New(p, b.Mem, b.Programs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAbandonAfterReleaseIsNoOp pins the pool-reuse hazard the runner's
// release-before-pool discipline fixes: a deadline abandon that fires
// AFTER the runner released its machine must not interrupt that machine
// — by then it may already be hosting an innocent later run. The
// companion case shows exactly what goes wrong without the release: the
// belated abandon lands on the machine and its next run dies with an
// InterruptedError it did nothing to deserve.
func TestAbandonAfterReleaseIsNoOp(t *testing.T) {
	// Disciplined exit (the fix): register, release, THEN abandon. The
	// machine must run to completion untouched.
	tk := &ticket{}
	m := buildMachine(t)
	tk.set(m)
	tk.set(nil) // the runner's deferred release, before pooling
	tk.abandon()
	if _, err := m.Run(); err != nil {
		t.Fatalf("released machine was interrupted by a belated abandon: %v", err)
	}

	// Reverted fix (no release): the same belated abandon now lands on
	// the machine, and what would be its next run after pool reuse is
	// spuriously killed.
	tk2 := &ticket{}
	m2 := buildMachine(t)
	tk2.set(m2)
	tk2.abandon() // deadline fires; the runner never released
	var ie *sim.InterruptedError
	if _, err := m2.Run(); !errors.As(err, &ie) {
		t.Fatalf("unreleased machine must be interrupted (got %v) — without release-before-pool the abandon corrupts the next run", err)
	}

	// Register-after-abandon: a machine registered onto an already-dead
	// ticket is interrupted immediately, so a slow acquisition cannot
	// outlive its deadline unnoticed.
	tk3 := &ticket{}
	tk3.abandon()
	m3 := buildMachine(t)
	tk3.set(m3)
	if _, err := m3.Run(); !errors.As(err, &ie) {
		t.Fatalf("machine registered after abandon must be interrupted, got %v", err)
	}
}

// TestQuarantineOnFailure: a machine whose run failed must be Discarded,
// never Put back — observed through the shared pool's counters while a
// watchdog-tripping grid runs.
func TestQuarantineOnFailure(t *testing.T) {
	p := sim.DefaultParams()
	p.Cores = 2
	p.MaxCycles = 50 // guaranteed watchdog trip: counter needs tens of thousands
	bad := Run{Workload: "counter", Seed: 1, Params: p}
	good := Run{Workload: "counter", Seed: 1, Params: sim.DefaultParams()}
	good.Params.Cores = 2

	puts0, discards0 := PoolStats()
	outs := (&Engine{Workers: 1}).Execute([]Run{bad, good})
	puts1, discards1 := PoolStats()

	if k := Classify(outs[0].Err); k != FailWatchdog {
		t.Fatalf("watchdog run classified %v (err %v)", k, outs[0].Err)
	}
	var we *sim.WatchdogError
	if !errors.As(outs[0].Err, &we) {
		t.Fatalf("watchdog error not structured: %v", outs[0].Err)
	}
	if we.Cycles != 50 || len(we.PCs) != 2 {
		t.Errorf("WatchdogError = %+v, want Cycles 50 and one PC per core", we)
	}
	if outs[1].Err != nil {
		t.Fatalf("clean run failed: %v", outs[1].Err)
	}
	if discards1-discards0 != 1 {
		t.Errorf("discards grew by %d, want 1 (the watchdog machine)", discards1-discards0)
	}
	if puts1-puts0 != 1 {
		t.Errorf("puts grew by %d, want 1 (the clean machine)", puts1-puts0)
	}
}

// TestRetryDelayDeterminism: backoff is a pure function of run identity
// and attempt — and stays within [base, 2*base).
func TestRetryDelayDeterminism(t *testing.T) {
	r := grid(1)[0]
	base := 25 * time.Millisecond
	d1 := retryDelay(r, 0, base)
	d2 := retryDelay(r, 0, base)
	if d1 != d2 {
		t.Errorf("same inputs gave %v and %v", d1, d2)
	}
	if d1 < base || d1 >= 2*base {
		t.Errorf("delay %v outside [base, 2*base)", d1)
	}
	other := r
	other.Seed++
	if retryDelay(r, 1, base) == d1 && retryDelay(other, 0, base) == d1 {
		t.Error("delay ignores attempt and run identity")
	}
}

// TestDispatchStop: a closed stop channel truncates the issued indices
// to a prefix; everything after resolves through skip without running.
func TestDispatchStop(t *testing.T) {
	const n = 8
	stop := make(chan struct{})
	release := make(chan struct{})
	entered := make(chan int, n)
	fn := func(i int) int {
		entered <- i
		<-release
		return i * 10
	}
	get, wait := DispatchStop(n, 2, fn, stop, func(i int) int { return -(i + 1) })
	// Both workers are now inside fn holding indices 0 and 1; the feeder
	// is blocked offering index 2. Closing stop skips 2..n-1
	// deterministically, then releasing lets the in-flight pair finish.
	<-entered
	<-entered
	close(stop)
	close(release)
	wait()
	if get(0) != 0 || get(1) != 10 {
		t.Errorf("in-flight results = %d, %d; want 0, 10", get(0), get(1))
	}
	for i := 2; i < n; i++ {
		if get(i) != -(i + 1) {
			t.Errorf("get(%d) = %d, want skip value %d", i, get(i), -(i + 1))
		}
	}
}
