package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// TestBusyLoopInstrCount pins isa.BusyLoop's length under lockstep: the li
// and then 2·max(count,1) addi/bgt instructions, the count the event
// loop's fold charges. The final counter is min(count,1)−1.
func TestBusyLoopInstrCount(t *testing.T) {
	for _, count := range []int64{-7, -1, 0, 1, 2, 5, 64} {
		img := mem.NewImage()
		b := isa.NewBuilder("busy")
		b.BusyLoop(isa.R(1), count, "loop")
		b.Halt()
		p := testParams(1, Eager)
		p.Sched = SchedLockstep
		res := runMachine(t, p, img, []*isa.Program{b.MustAssemble()})
		if got, want := res.PerCore[0].Instrs, 1+2*max(count, 1)+1; got != want {
			t.Errorf("count=%d: %d instructions with the halt, want %d", count, got, want)
		}
	}
}

// probeSched is the lockstep scheduler with an observer after every
// cycle: at is given the machine and core's PC before the cycle, and
// returns a PC to record and whether to record it. The PC is recorded as
// its offset from head, the core's busy-loop addi. It lets a test see
// where lockstep stands inside a busy loop at the moment a remote abort
// or the watchdog meets a core the event loop ran ahead, without
// changing the run.
type probeSched struct {
	core, head int
	at         func(m *Machine, before int) (pc int, ok bool)
	offsets    map[int]bool
}

func (s *probeSched) Run(m *Machine) error {
	c := m.Cores[s.core]
	for !m.allHalted() {
		if m.Now >= m.P.MaxCycles {
			return m.watchdogErr()
		}
		before := c.PC
		m.Step()
		if pc, ok := s.at(m, before); ok {
			s.offsets[pc-s.head] = true
		}
	}
	return nil
}

// abortAt observes the step at which core v is aborted, and records v's
// PC before it.
func abortAt(v int) func() func(m *Machine, before int) (int, bool) {
	return func() func(m *Machine, before int) (int, bool) {
		var last int64
		return func(m *Machine, before int) (int, bool) {
			n := m.Cores[v].Stats.Aborts
			hit := n > last
			last = n
			return before, hit
		}
	}
}

// cycleAt records core v's PC after lockstep steps cycle t.
func cycleAt(v int, t int64) func() func(m *Machine, before int) (int, bool) {
	return func() func(m *Machine, before int) (int, bool) {
		return func(m *Machine, _ int) (int, bool) { return m.Cores[v].PC, m.Now == t }
	}
}

// busyAbortScenario: the victim's transaction writes x and then busy-loops;
// after pad NOPs and a busy loop of its own, the aborter's plain store to
// x aborts it remotely, inside the victim's loop. Sweeping pad moves the
// abort over both PCs of the loop.
func busyAbortScenario(victim, aborter, pad int) func() (*mem.Image, []*isa.Program) {
	return func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage()
		x := img.AllocBlocks(mem.BlockSize)
		progs := make([]*isa.Program, 2)
		b := isa.NewBuilder("victim")
		b.TxBegin()
		b.St(isa.Zero, isa.Zero, x, 8)
		b.BusyLoop(isa.R(1), 300, "hold")
		b.TxCommit()
		b.Barrier()
		b.Halt()
		progs[victim] = b.MustAssemble()
		b = isa.NewBuilder("aborter")
		for range pad {
			b.Nop()
		}
		b.BusyLoop(isa.R(1), 100, "late")
		b.St(isa.Zero, isa.Zero, x, 8)
		b.Barrier()
		b.Halt()
		progs[aborter] = b.MustAssemble()
		return img, progs
	}
}

// busySpinScenario: core loop runs pad NOPs and a 5000-iteration busy
// loop; every other core commits an empty transaction and then spins for
// 3000 cycles on a register-only loop that is not a busy loop, so the
// event loop keeps taking turns while core loop is inside its busy loop.
func busySpinScenario(cores, loop, pad int) func() (*mem.Image, []*isa.Program) {
	return func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage()
		progs := make([]*isa.Program, cores)
		for id := range progs {
			b := isa.NewBuilder("spin")
			if id == loop {
				for range pad {
					b.Nop()
				}
				b.BusyLoop(isa.R(1), 5000, "long")
			} else {
				b.TxBegin()
				b.TxCommit()
				spinLoop(b, isa.R(1), 1000, "spin")
			}
			b.Barrier()
			b.Halt()
			progs[id] = b.MustAssemble()
		}
		return img, progs
	}
}

// busyValueScenario runs one busy loop per core from counter v, on core 1
// inside a transaction, and stores each final counter.
func busyValueScenario(v int64) func() (*mem.Image, []*isa.Program) {
	return func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage()
		out := img.AllocBlocks(2 * mem.BlockSize)
		progs := make([]*isa.Program, 2)
		for id := range progs {
			b := isa.NewBuilder("value")
			if id == 1 {
				b.TxBegin()
			}
			b.BusyLoop(isa.R(3), v, "loop")
			b.St(isa.R(3), isa.Zero, out+int64(id)*mem.BlockSize, 8)
			if id == 1 {
				b.TxCommit()
			}
			b.Barrier()
			b.Halt()
			progs[id] = b.MustAssemble()
		}
		return img, progs
	}
}

// runAbortScenario: the victim's transaction writes x and, when load is
// set, loads y from memory, so that its next run starts only after that
// load's multi-cycle latency; then it runs body, which touches only
// registers. After delay cycles the aborter's plain store to x aborts it
// remotely. Sweeping delay moves the abort over the store's latency, the
// load's and the run.
func runAbortScenario(victim, aborter, delay int, load bool, body func(b *isa.Builder)) func() (*mem.Image, []*isa.Program) {
	return func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage()
		x := img.AllocBlocks(mem.BlockSize)
		y := img.AllocBlocks(mem.BlockSize)
		progs := make([]*isa.Program, 2)
		b := isa.NewBuilder("victim")
		b.TxBegin()
		b.St(isa.Zero, isa.Zero, x, 8)
		if load {
			b.Ld(isa.R(5), isa.Zero, y, 8)
		}
		body(b)
		b.TxCommit()
		b.Barrier()
		b.Halt()
		progs[victim] = b.MustAssemble()
		b = isa.NewBuilder("aborter")
		for range delay % 2 {
			b.Nop()
		}
		b.BusyLoop(isa.R(1), int64(delay/2), "late")
		b.St(isa.Zero, isa.Zero, x, 8)
		b.Barrier()
		b.Halt()
		progs[aborter] = b.MustAssemble()
		return img, progs
	}
}

// spinBody is a 120-instruction register-only loop the event loop cannot
// fold: it runs inside runs, instruction by instruction.
func spinBody(b *isa.Builder) { spinLoop(b, isa.R(2), 40, "spin") }

// chainedBody runs two busy loops inside one run, with register-only
// instructions before, between and after them.
func chainedBody(b *isa.Builder) {
	b.Nop()
	b.Addi(isa.R(3), isa.R(3), 1)
	b.BusyLoop(isa.R(2), 60, "first")
	b.Addi(isa.R(3), isa.R(3), 1)
	b.BusyLoop(isa.R(4), 30, "second")
	b.Nop()
}

// symbolicStopScenario runs, in stealProgs' tracked transaction, two
// symbolic words of the stolen block through first (r4, the first word)
// and then second (r6, the second word plus one), with register-only
// instructions between them, under a one-entry
// constraint buffer (see oneConstraint): first's pin or constraint fills
// the buffer and second's overflows it, so second must abort at its own
// cycle. A run that went on through second would abort at the wrong one.
func symbolicStopScenario(first, second func(b *isa.Builder)) func(int) func() (*mem.Image, []*isa.Program) {
	return func(int) func() (*mem.Image, []*isa.Program) {
		return func() (*mem.Image, []*isa.Program) {
			img := mem.NewImage()
			_, progs := stealProgs(img, 5, 5, func(b *isa.Builder, a int64) {
				b.TxBegin()
				b.Ld(isa.R(4), isa.Zero, a, 8)
				b.Ld(isa.R(5), isa.Zero, a+8, 8)
				first(b)
				b.Addi(isa.R(6), isa.R(5), 1) // propagates: stays in the run
				b.Nop()
				b.Nop()
				second(b)
				b.BusyLoop(isa.R(8), 300, "lose")
				b.St(isa.R(7), isa.Zero, a+16, 8)
				b.TxCommit()
			})
			return img, progs
		}
	}
}

// symbolicMul pins the symbolic value in r; symbolicBranch constrains it.
func symbolicMul(r isa.Reg) func(b *isa.Builder) {
	return func(b *isa.Builder) { b.Mul(isa.R(7), r, r) }
}

func symbolicBranch(r isa.Reg) func(b *isa.Builder) {
	return func(b *isa.Builder) {
		label := fmt.Sprintf("taken%d", r)
		b.Bgt(r, isa.Zero, label)
		b.Label(label)
	}
}

func oneConstraint(p *Params) { p.Retcon.ConstraintEntries = 1 }

// structOverflowed requires lockstep to have aborted on a full constraint
// buffer, which symbolicStopScenario's rows exist to place.
func structOverflowed(t *testing.T, lockstep *Result) {
	if lockstep.Metrics.AbortCause[telemetry.CauseStructOverflow] == 0 {
		t.Error("no constraint-buffer overflow: the symbolic instruction never aborted")
	}
}

// TestSchedulerBusyLoopEdges drives the event loop's runs of local
// instructions (runLocal), and the busy loops folded inside them,
// through the places that observe or bound a core inside a run, and
// requires lockstep's outcome every time: the same Result (or the same
// error), final image and trace. Each row must see folding fire
// (SchedStats.RunInstrs > 0). A row with a watch observes lockstep where
// a remote abort or the watchdog meets the core inside its busy loop,
// over its pad sweep, and must see both of the loop's PCs there: once
// with the addi next and once with the bgt.
func TestSchedulerBusyLoopEdges(t *testing.T) {
	const maxCycles = 1501
	for _, row := range []struct {
		name  string
		cores int
		mode  Mode
		pads  int
		max   int64 // MaxCycles; 0 keeps the default
		// params, when set, adjusts the row's machine parameters.
		params func(*Params)
		build  func(pad int) func() (*mem.Image, []*isa.Program)
		// watch, when set, observes core watchCore's busy loop in lockstep.
		watch     func() func(m *Machine, before int) (int, bool)
		watchCore int
		// prior, when set, is run first on the machine the event runs
		// reuse, and interrupted at its first commit while a core is
		// inside a run.
		prior   func() (*mem.Image, []*isa.Program)
		wantErr bool
		check   func(t *testing.T, lockstep *Result)
	}{
		{name: "abort-mid-loop/aborter-below", cores: 2, mode: Eager, pads: 4,
			build: func(pad int) func() (*mem.Image, []*isa.Program) { return busyAbortScenario(1, 0, pad) },
			watch: abortAt(1), watchCore: 1},
		{name: "abort-mid-loop/aborter-above", cores: 2, mode: Eager, pads: 4,
			build: func(pad int) func() (*mem.Image, []*isa.Program) { return busyAbortScenario(0, 1, pad) },
			watch: abortAt(0), watchCore: 0},
		{name: "watchdog-mid-loop", cores: 1, mode: Eager, pads: 2, max: maxCycles,
			build: func(pad int) func() (*mem.Image, []*isa.Program) { return busySpinScenario(1, 0, pad) },
			watch: cycleAt(0, maxCycles), watchCore: 0,
			wantErr: true},
		{name: "interrupt-mid-loop", cores: 4, mode: Eager, pads: 1, max: maxCycles,
			// The reused machine's runs start from a Reset: bounds left
			// over from the run the interrupt cut short must not reach
			// them. Its core 0 spins instead, until the watchdog.
			prior:   busySpinScenario(4, 0, 0),
			build:   func(int) func() (*mem.Image, []*isa.Program) { return busySpinScenario(4, 3, 0) },
			wantErr: true},
		{name: "counter=1", cores: 2, mode: RetCon, pads: 1,
			build: func(int) func() (*mem.Image, []*isa.Program) { return busyValueScenario(1) }},
		{name: "counter=0", cores: 2, mode: RetCon, pads: 1,
			build: func(int) func() (*mem.Image, []*isa.Program) { return busyValueScenario(0) }},
		{name: "counter<0", cores: 2, mode: RetCon, pads: 1,
			build: func(int) func() (*mem.Image, []*isa.Program) { return busyValueScenario(-5) }},
		{name: "counter=MinInt64", cores: 2, mode: RetCon, pads: 1, max: maxCycles,
			// The first decrement wraps to MaxInt64, so the loop runs
			// into the watchdog instead of ending after two instructions.
			build:   func(int) func() (*mem.Image, []*isa.Program) { return busyValueScenario(math.MinInt64) },
			wantErr: true},
		{name: "retcon-symbolic-counter", cores: 2, mode: RetCon, pads: 1,
			// The counter is loaded from the tracked block, so every bgt
			// constrains its root: the loop must run instruction by
			// instruction. The other cores' busy loops fold.
			build: func(int) func() (*mem.Image, []*isa.Program) {
				return func() (*mem.Image, []*isa.Program) {
					img := mem.NewImage()
					_, progs := stealProgs(img, 5, 5, func(b *isa.Builder, a int64) {
						b.TxBegin()
						b.Ld(isa.R(4), isa.Zero, a, 8)
						b.Label("symbolic")
						b.Addi(isa.R(4), isa.R(4), -1)
						b.Bgt(isa.R(4), isa.Zero, "symbolic")
						b.BusyLoop(isa.R(8), 300, "lose")
						b.St(isa.R(4), isa.Zero, a+8, 8)
						b.TxCommit()
					})
					return img, progs
				}
			},
			check: func(t *testing.T, lockstep *Result) {
				if lockstep.Retcon.SumConstraints == 0 {
					t.Error("the symbolic counter recorded no constraint")
				}
			}},
		{name: "abort-in-run/eager", cores: 2, mode: Eager, pads: 150,
			build: func(pad int) func() (*mem.Image, []*isa.Program) {
				return runAbortScenario(1, 0, 140+pad, false, spinBody)
			}},
		{name: "abort-in-run/retcon", cores: 2, mode: RetCon, pads: 150,
			build: func(pad int) func() (*mem.Image, []*isa.Program) {
				return runAbortScenario(0, 1, 140+pad, false, spinBody)
			}},
		{name: "abort-in-load-latency/aborter-below", cores: 2, mode: Eager, pads: 300,
			// The refund of a run aborted before it began must leave out
			// the load latency that precedes it.
			build: func(pad int) func() (*mem.Image, []*isa.Program) {
				return runAbortScenario(1, 0, 140+pad, true, spinBody)
			}},
		{name: "abort-in-load-latency/aborter-above", cores: 2, mode: RetCon, pads: 300,
			build: func(pad int) func() (*mem.Image, []*isa.Program) {
				return runAbortScenario(0, 1, 140+pad, true, spinBody)
			}},
		{name: "abort-in-chained-busy-loop", cores: 2, mode: Eager, pads: 210,
			build: func(pad int) func() (*mem.Image, []*isa.Program) {
				return runAbortScenario(1, 0, 140+pad, false, chainedBody)
			}},
		{name: "watchdog-mid-run", cores: 1, mode: Eager, pads: 3, max: 1700,
			// The spin loop's three PCs each meet the watchdog once. Two
			// full turns (2050 instructions) would end 350 instructions,
			// not a whole number of iterations, past the bound.
			build: func(pad int) func() (*mem.Image, []*isa.Program) {
				return func() (*mem.Image, []*isa.Program) {
					b := isa.NewBuilder("spin")
					for range pad {
						b.Nop()
					}
					spinLoop(b, isa.R(1), 1000, "spin")
					b.Halt()
					return mem.NewImage(), []*isa.Program{b.MustAssemble()}
				}
			},
			wantErr: true},
		{name: "retcon-stop-at-symbolic-mul", cores: 2, mode: RetCon, pads: 1, params: oneConstraint,
			build: symbolicStopScenario(symbolicBranch(isa.R(4)), symbolicMul(isa.R(6))), check: structOverflowed},
		{name: "retcon-stop-at-symbolic-branch", cores: 2, mode: RetCon, pads: 1, params: oneConstraint,
			build: symbolicStopScenario(symbolicMul(isa.R(4)), symbolicBranch(isa.R(6))), check: structOverflowed},
		{name: "register-loop-over-turn-cap", cores: 2, mode: Eager, pads: 1,
			// 6000 register-only instructions take several turns of at
			// most interruptWindow each, while the other core's
			// transactions keep the event loop visiting other cycles.
			build: func(int) func() (*mem.Image, []*isa.Program) {
				return func() (*mem.Image, []*isa.Program) {
					img, _, progs := buildCounter(2, 6, 2, 10)
					b := isa.NewBuilder("long")
					spinLoop(b, isa.R(1), 2000, "spin")
					b.Barrier()
					b.Halt()
					progs[1] = b.MustAssemble()
					return img, progs
				}
			}},
		{name: "jump-to-bgt", cores: 1, mode: Eager, pads: 1,
			build: func(int) func() (*mem.Image, []*isa.Program) {
				return func() (*mem.Image, []*isa.Program) {
					img := mem.NewImage()
					out := img.AllocBlocks(mem.BlockSize)
					b := isa.NewBuilder("jump")
					b.Li(isa.R(1), 7)
					b.Jmp("mid")
					b.Label("loop")
					b.Addi(isa.R(1), isa.R(1), -1)
					b.Label("mid")
					b.Bgt(isa.R(1), isa.Zero, "loop")
					b.St(isa.R(1), isa.Zero, out, 8)
					b.Halt()
					return img, []*isa.Program{b.MustAssemble()}
				}
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := testParams(row.cores, row.mode)
			if row.max > 0 {
				p.MaxCycles = row.max
			}
			if row.params != nil {
				row.params(&p)
			}
			var sched SchedStats
			seen := make(map[int]bool) // offsets from the watched loop's addi
			for pad := 0; pad < row.pads; pad++ {
				build := row.build(pad)
				var probe *probeSched
				if row.watch != nil {
					_, progs := build()
					probe = &probeSched{core: row.watchCore, head: busyLoopHead(t, progs[row.watchCore]),
						at: row.watch(), offsets: seen}
				}
				lock := runBusyRow(t, p, SchedLockstep, probe, nil, build)
				ev := runBusyRow(t, p, SchedEvent, nil, row.prior, build)
				lock.compare(t, ev)
				sched.RunInstrs += ev.sched.RunInstrs
				if row.wantErr != (lock.err != nil) {
					t.Fatalf("pad=%d: lockstep error %v, want error: %v", pad, lock.err, row.wantErr)
				}
				if row.check != nil && lock.res != nil {
					row.check(t, lock.res)
				}
			}
			if sched.RunInstrs <= 0 {
				t.Error("no instruction was charged inside a run: folding never fired")
			}
			if row.watch != nil && (!seen[0] || !seen[1]) {
				t.Errorf("lockstep PCs at the observation points, as offsets from the loop's addi: %v; want both the addi (0) and the bgt (1)", seen)
			}
		})
	}
}

// busyLoopHead returns the PC of the program's only busy-loop addi.
func busyLoopHead(t *testing.T, prog *isa.Program) int {
	t.Helper()
	head := -1
	for pc := range prog.Instrs {
		if prog.Instrs[pc].BusyLoopHead() {
			if head >= 0 {
				t.Fatalf("%s: more than one busy loop", prog.Name)
			}
			head = pc
		}
	}
	if head < 0 {
		t.Fatalf("%s: no busy loop", prog.Name)
	}
	return head
}

// busyRowRun is one scheduler's outcome on a busy-loop edge row.
type busyRowRun struct {
	name  string
	res   *Result
	err   error
	img   *mem.Image
	trace eventLog
	sched SchedStats
}

// runBusyRow runs one machine under kind (or under probe, a lockstep
// observer, when it is non-nil), recording its events. With prior set,
// the machine first runs prior until its first commit interrupts it, and
// is then Reset for the run.
func runBusyRow(t *testing.T, p Params, kind SchedKind, probe *probeSched,
	prior, build func() (*mem.Image, []*isa.Program)) *busyRowRun {
	t.Helper()
	p.Sched = kind
	m := &Machine{}
	if prior != nil {
		interruptMidLoop(t, m, p, prior)
	}
	img, progs := build()
	if err := m.Reset(p, img, progs); err != nil {
		t.Fatal(err)
	}
	if probe != nil {
		m.SetScheduler(probe)
	}
	out := &busyRowRun{name: kind.String(), img: img}
	m.Record(telemetry.NewRecorder(&out.trace, 0))
	out.res, out.err = m.Run()
	out.sched = m.SchedStats()
	return out
}

// compare requires run ev to match lockstep's run l: the same Result or
// the same error, the same final image and the same events.
func (l *busyRowRun) compare(t *testing.T, ev *busyRowRun) {
	t.Helper()
	if !reflect.DeepEqual(l.err, ev.err) {
		t.Errorf("errors diverge:\nlockstep: %v\n%s: %v", l.err, ev.name, ev.err)
	}
	if !reflect.DeepEqual(l.res, ev.res) {
		t.Errorf("results diverge:\nlockstep: %+v\n%s: %+v", l.res, ev.name, ev.res)
	}
	if !l.img.Equal(ev.img) {
		w := l.img.DiffWord(ev.img)
		t.Errorf("final memory diverges at %#x: lockstep %d, %s %d", w, l.img.Read64(w), ev.name, ev.img.Read64(w))
	}
	if !reflect.DeepEqual(l.trace, ev.trace) {
		t.Errorf("traces diverge: lockstep %d events, %s %d", len(l.trace), ev.name, len(ev.trace))
	}
}

// interruptMidLoop runs prior on m until its first commit interrupts it,
// and requires the run to stop with an InterruptedError while some core
// is inside a run.
func interruptMidLoop(t *testing.T, m *Machine, p Params, prior func() (*mem.Image, []*isa.Program)) {
	t.Helper()
	img, progs := prior()
	if err := m.Reset(p, img, progs); err != nil {
		t.Fatal(err)
	}
	m.OnCommit(func(m *Machine, _ *Core) error { m.Interrupt(); return nil })
	var ie *InterruptedError
	if _, err := m.Run(); !errors.As(err, &ie) {
		t.Fatalf("interrupted run returned %v, want an InterruptedError", err)
	}
	for _, c := range m.Cores {
		if c.runTo > m.Now {
			return
		}
	}
	t.Fatalf("interrupted at cycle %d with no core inside a run", m.Now)
}
