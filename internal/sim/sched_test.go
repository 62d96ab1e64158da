package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// runBoth builds the machine twice via build() and runs it under the
// lockstep oracle and the event-driven scheduler, each with a recorder
// attached. It asserts identical Result structs, identical trace output
// and an identical final memory word at probe (when probe >= 0). It
// returns the event-driven result.
func runBoth(t *testing.T, p Params, probe int64, build func() (*mem.Image, []*isa.Program)) *Result {
	t.Helper()
	runs := []struct {
		name string
		kind SchedKind
	}{{"lockstep", SchedLockstep}, {"event", SchedEvent}}
	results := make([]*Result, len(runs))
	traces := make([]string, len(runs))
	mems := make([]int64, len(runs))
	for i, r := range runs {
		img, progs := build()
		pk := p
		pk.Sched = r.kind
		m, err := New(pk, img, progs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		m.Record(telemetry.NewRecorder(telemetry.NewJSONLSink(&buf), 0))
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		results[i] = res
		traces[i] = buf.String()
		if probe >= 0 {
			mems[i] = img.Read64(probe)
		}
	}
	// Mode is part of the Result; Sched deliberately is not — the structs
	// must be byte-identical across schedulers.
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("results diverge:\nlockstep: %+v\n%s: %+v", results[0], runs[i].name, results[i])
		}
		if probe >= 0 && mems[0] != mems[i] {
			t.Errorf("final memory diverges at %#x: lockstep %d vs %s %d", probe, mems[0], runs[i].name, mems[i])
		}
	}
	if traces[0] != traces[1] {
		t.Errorf("traces diverge:\n--- lockstep ---\n%s--- event ---\n%s", traces[0], traces[1])
	}
	return results[1]
}

// TestSchedulerEquivalenceCounter: the contended shared counter across
// every mode and several machine sizes — stall-heavy (NACK retries, abort
// backoffs, DRAM misses), so the time-skip path is exercised hard. The
// second row's 1500-cycle DRAM and 400-cycle abort backoff put most
// stalls beyond the wake queue's wheel horizon, so cores wait in their
// slot for a later lap and are queued again there, also after remote
// aborts rescheduled them; 33 cores is the first size past a half-word
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
		img := mem.NewImage()
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
		img := mem.NewImage()
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
		img := mem.NewImage()
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
		img := mem.NewImage()
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
		img := mem.NewImage()
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

// eventLog is a recorder sink that keeps every event in memory.
type eventLog []telemetry.Event

func (l *eventLog) WriteEvents(evs []telemetry.Event) error {
	*l = append(*l, evs...)
	return nil
}

// parkScenario builds a NACK wait: the holder transaction writes x and
// commits after hold busy-loop iterations; the waiter begins its
// transaction later (so it is younger) and loads x, so it is NACKed until
// the holder commits. With an aborter (>= 0), the waiter first writes y,
// and the aborter's plain store to y after 120 busy-loop iterations
// aborts the parked waiter remotely. Core padded runs pad extra NOPs: the
// holder just before its commit, any other core first.
func parkScenario(cores, holder, waiter, aborter int, hold int64, padded, pad int) func() (*mem.Image, []*isa.Program) {
	return func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage()
		x := img.AllocBlocks(mem.BlockSize)
		y := img.AllocBlocks(mem.BlockSize)
		progs := make([]*isa.Program, cores)
		for id := range progs {
			b := isa.NewBuilder("park")
			if id == padded && id != holder {
				for range pad {
					b.Nop()
				}
			}
			switch id {
			case holder:
				b.TxBegin()
				b.St(isa.Zero, isa.Zero, x, 8)
				if hold > 0 {
					b.BusyLoop(isa.R(1), hold, "hold")
				}
				if id == padded {
					for range pad {
						b.Nop()
					}
				}
				b.TxCommit()
			case waiter:
				b.BusyLoop(isa.R(1), 2, "younger")
				b.TxBegin()
				if aborter >= 0 {
					b.St(isa.Zero, isa.Zero, y, 8)
				}
				b.Ld(isa.R(2), isa.Zero, x, 8)
				b.TxCommit()
			case aborter:
				b.BusyLoop(isa.R(1), 120, "late")
				b.St(isa.Zero, isa.Zero, y, 8)
			}
			b.Barrier()
			b.Halt()
			progs[id] = b.MustAssemble()
		}
		return img, progs
	}
}

// spinLoop emits a delay loop with a nop in its body: n iterations of
// three instructions that, unlike isa.BusyLoop, is not the busy-loop
// idiom, so every scheduler executes it one instruction per cycle.
func spinLoop(b *isa.Builder, ctr isa.Reg, n int64, label string) {
	b.Li(ctr, n)
	b.Label(label)
	b.Nop()
	b.Addi(ctr, ctr, -1)
	b.Bgt(ctr, isa.Zero, label)
}

// TestSchedulerParkedNackEdges drives the parked-NACK path of the event
// scheduler through its edge cases in every mode and requires lockstep's
// Result and recorded trace every time. The slot rows sweep a pad over
// two retry periods, so that in some run the event that ends the wait —
// the holder's commit, or the remote abort of the waiter — falls exactly
// on one of the waiter's retry slots, with the ending core's ID below and
// above the waiter's; the recorded trace proves the slot was hit. The predictor-flip row delays the waiter's load so that its wait
// spans from none to 15 NACKs: with PromoteAfter 4, LazyVB and RetCon
// promote the block while the waiter is parked in some runs, exactly at
// its last NACK in one, and the load after the wake takes the Track path.
// The scenario rows also check the wait events themselves: every wait of
// the waiter names the scenario's holder, and in the abort rows some
// abort of the waiter is logged right after the wait it ended.
func TestSchedulerParkedNackEdges(t *testing.T) {
	const none = -1
	nackRetry := int(DefaultParams().NackRetry)
	for _, row := range []struct {
		name  string
		cores int
		pads  int
		build func(pad int) func() (*mem.Image, []*isa.Program)
		// slotKind and slotCore name the event that must fall on a retry
		// slot of core waiter in some run (slotKind 0: no such check).
		// Every NACK wait of the waiter must name holder (none: no such
		// check).
		slotKind                 telemetry.Kind
		slotCore, waiter, holder int
		// promoteAfter overrides Params.PromoteAfter when non-zero, and
		// then the waiter must track a block in some LazyVB and RetCon run.
		promoteAfter int
	}{
		{name: "commit-at-slot/holder-below", cores: 2, pads: 2 * nackRetry,
			build:    func(pad int) func() (*mem.Image, []*isa.Program) { return parkScenario(2, 0, 1, none, 0, 0, pad) },
			slotKind: telemetry.KindCommit, slotCore: 0, waiter: 1, holder: 0},
		{name: "commit-at-slot/holder-above", cores: 2, pads: 2 * nackRetry,
			build:    func(pad int) func() (*mem.Image, []*isa.Program) { return parkScenario(2, 1, 0, none, 0, 1, pad) },
			slotKind: telemetry.KindCommit, slotCore: 1, waiter: 0, holder: 1},
		{name: "abort-at-slot/aborter-below", cores: 3, pads: 2 * nackRetry,
			build:    func(pad int) func() (*mem.Image, []*isa.Program) { return parkScenario(3, 1, 2, 0, 400, 0, pad) },
			slotKind: telemetry.KindAbort, slotCore: 2, waiter: 2, holder: 1},
		{name: "abort-at-slot/aborter-above", cores: 3, pads: 2 * nackRetry,
			build:    func(pad int) func() (*mem.Image, []*isa.Program) { return parkScenario(3, 0, 1, 2, 400, 2, pad) },
			slotKind: telemetry.KindAbort, slotCore: 1, waiter: 1, holder: 0},
		{name: "predictor-flip", cores: 2, pads: 16 * nackRetry,
			build:  func(pad int) func() (*mem.Image, []*isa.Program) { return parkScenario(2, 0, 1, none, 0, 1, pad) },
			waiter: 1, holder: 0, promoteAfter: 4},
		{name: "counter@32", cores: 32, pads: 1, holder: none,
			build: func(int) func() (*mem.Image, []*isa.Program) {
				return func() (*mem.Image, []*isa.Program) { img, _, progs := buildCounter(32, 3, 2, 10); return img, progs }
			}},
		{name: "counter@64", cores: 64, pads: 1, holder: none,
			build: func(int) func() (*mem.Image, []*isa.Program) {
				return func() (*mem.Image, []*isa.Program) { img, _, progs := buildCounter(64, 2, 2, 10); return img, progs }
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, mode := range []Mode{Eager, LazyVB, RetCon} {
				t.Run(mode.String(), func(t *testing.T) {
					p := testParams(row.cores, mode)
					if row.promoteAfter != 0 {
						p.PromoteAfter = row.promoteAfter
					}
					var sched SchedStats
					slotHit, tracked, abortEnds := false, false, false
					for pad := 0; pad < row.pads; pad++ {
						build := row.build(pad)
						var log, evLog eventLog
						lockstep, _ := runParkRow(t, p, SchedLockstep, &log, build)
						event, st := runParkRow(t, p, SchedEvent, &evLog, build)
						if !reflect.DeepEqual(lockstep, event) {
							t.Errorf("pad=%d: results diverge:\nlockstep: %+v\nevent:    %+v", pad, lockstep, event)
						}
						if !slices.Equal(log, evLog) {
							t.Errorf("pad=%d: traces diverge (lockstep %d events, event %d)", pad, len(log), len(evLog))
						}
						for _, e := range log {
							if e.Kind == telemetry.KindNack && int(e.Core) == row.waiter && row.holder != none && int(e.A) != row.holder {
								t.Errorf("pad=%d: core %d's NACK wait names holder %d, want %d", pad, row.waiter, e.A, row.holder)
							}
						}
						sched.ParkedRetries += st.ParkedRetries
						slotHit = slotHit || endsAtSlot(log, row.slotKind, row.slotCore, row.waiter, int64(nackRetry))
						abortEnds = abortEnds || abortEndsWait(log, row.waiter)
						tracked = tracked || slices.ContainsFunc(log, func(e telemetry.Event) bool {
							return e.Kind == telemetry.KindTrack && int(e.Core) == row.waiter
						})
					}
					if sched.ParkedRetries == 0 {
						t.Error("no NACKed retry was charged in bulk: the parked path never fired")
					}
					if row.slotKind != 0 && !slotHit {
						t.Errorf("no run put the %v on a retry slot of core %d", row.slotKind, row.waiter)
					}
					if row.slotKind == telemetry.KindAbort && !abortEnds {
						t.Errorf("no abort of core %d was logged after the NACK wait it ended", row.waiter)
					}
					if row.promoteAfter != 0 && mode != Eager && !tracked {
						t.Errorf("core %d never tracked a block: its predictor did not flip", row.waiter)
					}
				})
			}
		})
	}
}

// runParkRow runs one machine with params p under kind, recording into
// log, and returns its Result and scheduler counters.
func runParkRow(t *testing.T, p Params, kind SchedKind, log *eventLog, build func() (*mem.Image, []*isa.Program)) (*Result, SchedStats) {
	t.Helper()
	img, progs := build()
	p.Sched = kind
	m, err := New(p, img, progs)
	if err != nil {
		t.Fatal(err)
	}
	m.Record(telemetry.NewRecorder(log, 0))
	res, err := m.Run()
	if err != nil {
		t.Fatalf("sched=%v: %v", kind, err)
	}
	return res, m.SchedStats()
}

// abortEndsWait reports whether an abort of core waiter follows, at its
// own cycle, the event of a NACK wait of waiter: the wait it ended.
func abortEndsWait(log eventLog, waiter int) bool {
	for i, e := range log {
		if e.Kind != telemetry.KindAbort || int(e.Core) != waiter {
			continue
		}
		for j := i - 1; j >= 0 && log[j].Cycle == e.Cycle; j-- {
			if log[j].Kind == telemetry.KindNack && int(log[j].Core) == waiter {
				return true
			}
		}
	}
	return false
}

// endsAtSlot reports whether an event of kind on core lands on a retry
// slot of one of core waiter's NACK waits: at B + k·nackRetry for some
// k ≥ 1, through the cycle the wait ended, where B is the wait's first
// NACK.
func endsAtSlot(log eventLog, kind telemetry.Kind, core, waiter int, nackRetry int64) bool {
	slots := make(map[int64]bool)
	for _, w := range log {
		if w.Kind == telemetry.KindNack && int(w.Core) == waiter {
			for t := w.B + nackRetry; t <= w.Cycle; t += nackRetry {
				slots[t] = true
			}
		}
	}
	for _, e := range log {
		if e.Kind == kind && int(e.Core) == core && slots[e.Cycle] {
			return true
		}
	}
	return false
}
