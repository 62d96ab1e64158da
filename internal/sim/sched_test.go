package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// runBoth builds the machine twice via build() and runs it under the
// lockstep oracle and the event-driven scheduler, asserting identical
// Result structs, trace output and final memory word at probe (when
// probe >= 0). It returns the event-driven result.
func runBoth(t *testing.T, p Params, probe int64, build func() (*mem.Image, []*isa.Program)) *Result {
	t.Helper()
	results := make(map[SchedKind]*Result, 2)
	traces := make(map[SchedKind]string, 2)
	mems := make(map[SchedKind]int64, 2)
	for _, kind := range []SchedKind{SchedLockstep, SchedEvent} {
		img, progs := build()
		pk := p
		pk.Sched = kind
		m, err := New(pk, img, progs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		m.Record(telemetry.NewRecorder(telemetry.NewJSONLSink(&buf), 0))
		res, err := m.Run()
		if err != nil {
			t.Fatalf("sched=%v: %v", kind, err)
		}
		results[kind] = res
		traces[kind] = buf.String()
		if probe >= 0 {
			mems[kind] = img.Read64(probe)
		}
	}
	// Mode is part of the Result; Sched deliberately is not — the structs
	// must be byte-identical across schedulers.
	if !reflect.DeepEqual(results[SchedLockstep], results[SchedEvent]) {
		t.Errorf("results diverge:\nlockstep: %+v\nevent:    %+v",
			results[SchedLockstep], results[SchedEvent])
	}
	if traces[SchedLockstep] != traces[SchedEvent] {
		t.Errorf("traces diverge:\n--- lockstep ---\n%s--- event ---\n%s",
			traces[SchedLockstep], traces[SchedEvent])
	}
	if probe >= 0 && mems[SchedLockstep] != mems[SchedEvent] {
		t.Errorf("final memory diverges at %#x: lockstep %d vs event %d",
			probe, mems[SchedLockstep], mems[SchedEvent])
	}
	return results[SchedEvent]
}

// TestSchedulerEquivalenceCounter: the contended shared counter across
// every mode and several machine sizes — stall-heavy (NACK retries, abort
// backoffs, DRAM misses), so the time-skip path is exercised hard. The
// second row's 1500-cycle DRAM and 400-cycle abort backoff put most
// stalls beyond the wake queue's wheel horizon, so its far set is filled,
// drained at its minimum and refilled, also by remote aborts of cores
// already waiting there; 33 cores is the first size past a half-word
// mask, 64 sets every mask bit.
func TestSchedulerEquivalenceCounter(t *testing.T) {
	for _, row := range []struct {
		sizes         []int
		ops           int
		dram, backoff int64
	}{
		{[]int{1, 2, 3, 8, 16}, 6, 100, 24}, // DefaultParams latencies
		{[]int{2, 8, 33, 64}, 3, 1500, 400},
	} {
		for _, mode := range []Mode{Eager, LazyVB, RetCon} {
			for _, cores := range row.sizes {
				p := testParams(cores, mode)
				p.DRAM, p.AbortBackoffBase = row.dram, row.backoff
				res := runBoth(t, p, -1, func() (*mem.Image, []*isa.Program) {
					img, _, progs := buildCounter(cores, row.ops, 2, 10)
					return img, progs
				})
				if got, want := res.Totals().Commits, int64(cores*row.ops); got != want {
					t.Errorf("mode=%v cores=%d dram=%d: commits=%d want %d", mode, cores, row.dram, got, want)
				}
			}
		}
	}
}

// TestSchedulerEquivalenceBarrier: barrier waits have no timed wake —
// release is driven by the last arriver — which is exactly the state the
// event scheduler must handle without a stall expiry to jump to.
func TestSchedulerEquivalenceBarrier(t *testing.T) {
	build := func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage(1 << 20)
		arr := img.AllocBlocks(4 * mem.BlockSize)
		out := img.AllocBlocks(4 * mem.BlockSize)
		progs := make([]*isa.Program, 4)
		for i := 0; i < 4; i++ {
			b := isa.NewBuilder("barrier")
			// Unequal pre-barrier work: core i busy-loops i*37 iterations, so
			// cores reach the barrier far apart and the waiters' bulk barrier
			// attribution is substantial.
			if i > 0 {
				b.BusyLoop(isa.R(7), int64(i*37), "skew")
			}
			b.Li(isa.R(1), int64(i+1))
			b.St(isa.R(1), isa.Zero, arr+int64(i)*mem.BlockSize, 8)
			b.Barrier()
			b.Li(isa.R(2), 0)
			for j := 0; j < 4; j++ {
				b.Ld(isa.R(3), isa.Zero, arr+int64(j)*mem.BlockSize, 8)
				b.Add(isa.R(2), isa.R(2), isa.R(3))
			}
			b.St(isa.R(2), isa.Zero, out+int64(i)*mem.BlockSize, 8)
			b.Barrier()
			b.Halt()
			progs[i] = b.MustAssemble()
		}
		return img, progs
	}
	res := runBoth(t, testParams(4, Eager), -1, build)
	if res.Totals().Cycles[CatBarrier] == 0 {
		t.Error("barrier cycles must be attributed")
	}
}

// TestSchedulerEquivalenceRemoteAbort: a transaction stalled on a long
// busy window is aborted by a remote plain store — the case where the
// victim's accumulated busy/other cycles must be settled at exactly the
// lockstep point before reattribution.
func TestSchedulerEquivalenceRemoteAbort(t *testing.T) {
	build := func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage(1 << 20)
		x := img.AllocBlocks(mem.BlockSize)
		done := img.AllocBlocks(mem.BlockSize)

		b0 := isa.NewBuilder("tx")
		b0.Label("retry")
		b0.TxBegin()
		b0.Ld(isa.R(1), isa.Zero, x, 8)
		b0.Addi(isa.R(1), isa.R(1), 1)
		b0.St(isa.R(1), isa.Zero, x, 8)
		b0.BusyLoop(isa.R(2), 200, "hold")
		b0.TxCommit()
		b0.Barrier()
		b0.Halt()

		b1 := isa.NewBuilder("plain")
		b1.BusyLoop(isa.R(2), 50, "wait")
		b1.Li(isa.R(1), 100)
		b1.St(isa.R(1), isa.Zero, done, 8)
		b1.St(isa.R(1), isa.Zero, x, 8)
		b1.Barrier()
		b1.Halt()

		return img, []*isa.Program{b0.MustAssemble(), b1.MustAssemble()}
	}
	runBoth(t, testParams(2, Eager), -1, build)
}

// TestSchedulerEquivalenceSymbolicRepair: the Figure 8 scenario (symbolic
// loss mid-transaction, pre-commit repair) under RETCON — covers remote
// aborts in both ID directions, commit-repair stalls in the "other"
// category, and the RetconAgg bookkeeping.
func TestSchedulerEquivalenceSymbolicRepair(t *testing.T) {
	build := func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage(1 << 20)
		a := img.AllocBlocks(mem.BlockSize)
		bAddr := img.AllocBlocks(mem.BlockSize)
		flag := img.AllocBlocks(mem.BlockSize)
		img.Write64(a, 5)

		b0 := isa.NewBuilder("fig8-p0")
		b0.TxBegin()
		b0.Ld(isa.R(1), isa.Zero, a, 8)
		b0.Addi(isa.R(1), isa.R(1), 1)
		b0.St(isa.R(1), isa.Zero, a, 8)
		b0.TxCommit()
		b0.Li(isa.R(9), 1)
		b0.St(isa.R(9), isa.Zero, flag, 8)
		b0.BusyLoop(isa.R(8), 40, "wait")
		b0.TxBegin()
		b0.Ld(isa.R(1), isa.Zero, a, 8)
		b0.Addi(isa.R(2), isa.R(1), 1)
		b0.St(isa.R(2), isa.Zero, bAddr, 8)
		b0.Ld(isa.R(1), isa.Zero, bAddr, 8)
		b0.Addi(isa.R(1), isa.R(1), 2)
		b0.BusyLoop(isa.R(8), 300, "lose")
		b0.St(isa.R(1), isa.Zero, a, 8)
		b0.Li(isa.R(4), 0)
		b0.St(isa.R(4), isa.Zero, bAddr, 8)
		b0.TxCommit()
		b0.Barrier()
		b0.Halt()

		b1 := isa.NewBuilder("fig8-p1")
		b1.Li(isa.R(2), 5)
		b1.St(isa.R(2), isa.Zero, a, 8)
		b1.Label("spin")
		b1.Ld(isa.R(1), isa.Zero, flag, 8)
		b1.Beq(isa.R(1), isa.Zero, "spin")
		b1.BusyLoop(isa.R(3), 120, "delay")
		b1.Li(isa.R(2), 6)
		b1.St(isa.R(2), isa.Zero, a, 8)
		b1.Barrier()
		b1.Halt()

		return img, []*isa.Program{b0.MustAssemble(), b1.MustAssemble()}
	}
	res := runBoth(t, testParams(2, RetCon), -1, build)
	if res.Retcon.SumLost == 0 {
		t.Error("scenario must exercise a symbolic loss")
	}
}

// TestSchedulerWatchdogEquivalence: a livelocked configuration (spec-set
// overflow retry loop) must expire the watchdog with the identical error
// under both schedulers, even though the event scheduler never simulates
// the idle tail cycle by cycle.
func TestSchedulerWatchdogEquivalence(t *testing.T) {
	errs := make(map[SchedKind]string, 2)
	for _, kind := range []SchedKind{SchedLockstep, SchedEvent} {
		img := mem.NewImage(1 << 20)
		arr := img.AllocBlocks(64 * mem.BlockSize)
		b := isa.NewBuilder("overflow")
		b.TxBegin()
		for i := 0; i < 8; i++ {
			b.Ld(isa.R(1), isa.Zero, arr+int64(i)*mem.BlockSize, 8)
		}
		b.TxCommit()
		b.Barrier()
		b.Halt()
		p := testParams(1, Eager)
		p.Sched = kind
		p.SpecCapacity = 4
		p.MaxCycles = 50_000
		m, err := New(p, img, []*isa.Program{b.MustAssemble()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err = m.Run(); err == nil {
			t.Fatalf("sched=%v: expected watchdog", kind)
		} else {
			errs[kind] = err.Error()
		}
	}
	if errs[SchedLockstep] != errs[SchedEvent] {
		t.Errorf("watchdog errors diverge: %q vs %q", errs[SchedLockstep], errs[SchedEvent])
	}
}

// TestSchedulerLoneBarrierReleases: a core whose peers have all halted
// must sail through its barrier (arrived >= alive) under both schedulers
// — the event scheduler has no timed wake for a barrier wait, so this
// exercises the halt-triggered release path.
func TestSchedulerLoneBarrierReleases(t *testing.T) {
	build := func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage(1 << 16)
		// Core 0 arrives at a second barrier after core 1 has halted; with
		// one live core the barrier releases immediately.
		b0 := isa.NewBuilder("straggler")
		b0.Barrier()
		b0.BusyLoop(isa.R(1), 20, "lag")
		b0.Barrier()
		b0.Halt()
		b1 := isa.NewBuilder("leaver")
		b1.Barrier()
		b1.Halt()
		return img, []*isa.Program{b0.MustAssemble(), b1.MustAssemble()}
	}
	runBoth(t, testParams(2, Eager), -1, build)
}

// TestSchedulerEquivalenceQuick drives random machine shapes through both
// schedulers (property-based differential testing).
func TestSchedulerEquivalenceQuick(t *testing.T) {
	for _, c := range []struct{ cores, ops, incs, busy int }{
		{1, 1, 1, 0}, {2, 5, 3, 0}, {3, 4, 1, 15}, {5, 3, 2, 7}, {8, 2, 2, 31},
	} {
		for mode := Eager; mode <= RetCon; mode++ {
			runBoth(t, testParams(c.cores, mode), -1, func() (*mem.Image, []*isa.Program) {
				img, _, progs := buildCounter(c.cores, c.ops, c.incs, c.busy)
				return img, progs
			})
		}
	}
}

func TestParseSched(t *testing.T) {
	for _, c := range []struct {
		in   string
		want SchedKind
	}{{"event", SchedEvent}, {"lockstep", SchedLockstep}, {" Event ", SchedEvent}, {"", SchedEvent}} {
		got, err := ParseSched(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSched(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseSched("cycle-accurate"); err == nil {
		t.Error("unknown scheduler must be rejected")
	}
	if SchedEvent.String() != "event" || SchedLockstep.String() != "lockstep" {
		t.Error("scheduler names must round-trip")
	}
	if SchedKind(9).String() == "" {
		t.Error("unknown kind must render")
	}
	p := DefaultParams()
	if p.Sched != SchedEvent {
		t.Error("the event scheduler must be the default")
	}
	p.Sched = SchedKind(9)
	if err := p.Validate(); err == nil {
		t.Error("invalid scheduler must fail validation")
	}
}

// TestSetScheduler: a custom Scheduler plugged into the machine drives
// the run (here: the lockstep oracle installed explicitly).
func TestSetScheduler(t *testing.T) {
	img, counter, progs := buildCounter(2, 3, 1, 4)
	m, err := New(testParams(2, Eager), img, progs)
	if err != nil {
		t.Fatal(err)
	}
	m.SetScheduler(lockstepSched{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := img.Read64(counter); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
}
