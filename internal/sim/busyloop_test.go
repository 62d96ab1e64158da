package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// TestBusyLoopInstrCount pins isa.BusyLoop's length under lockstep: the li
// and then 2·max(count,1) addi/bgt instructions, the count the event
// loop's fast-forward charges. The final counter is min(count,1)−1.
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
// where lockstep stands inside a busy loop at the moment the event loop
// has to unwind one, without changing the run.
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
// 3000 cycles on a loop the event loop cannot fast-forward, so the event
// loop visits every cycle while core loop is inside its busy loop.
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

// TestSchedulerBusyLoopEdges drives the event loop's busy-loop
// fast-forward through the places that observe a core inside a loop it
// ran in one step, and requires lockstep's outcome every time: the same
// Result (or the same error), final image and trace. Each row must see
// the fast-forward fire (SchedStats.BusySkipped > 0). A row with a watch
// observes lockstep where the event loop has to unwind the loop, over
// its pad sweep, and must see both of the loop's PCs there: the unwind
// lands once with the addi next and once with the bgt.
func TestSchedulerBusyLoopEdges(t *testing.T) {
	const maxCycles = 1501
	for _, row := range []struct {
		name  string
		cores int
		mode  Mode
		pads  int
		max   int64 // MaxCycles; 0 keeps the default
		build func(pad int) func() (*mem.Image, []*isa.Program)
		// watch, when set, observes core watchCore's busy loop in lockstep.
		watch     func() func(m *Machine, before int) (int, bool)
		watchCore int
		// prior, when set, is run first on the machine the event runs
		// reuse, and interrupted at its first commit while a core is
		// inside a fast-forwarded loop.
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
			// The reused run's core 0 spins instead, and the watchdog
			// expires while it does: a loop end left over from the
			// interrupted run would unwind core 0 there and corrupt
			// WatchdogError.PCs.
			prior:   busySpinScenario(4, 0, 0),
			build:   func(int) func() (*mem.Image, []*isa.Program) { return busySpinScenario(4, 3, 0) },
			wantErr: true},
		{name: "counter=1", cores: 2, mode: RetCon, pads: 1,
			build: func(int) func() (*mem.Image, []*isa.Program) { return busyValueScenario(1) }},
		{name: "counter=0", cores: 2, mode: RetCon, pads: 1,
			build: func(int) func() (*mem.Image, []*isa.Program) { return busyValueScenario(0) }},
		{name: "counter<0", cores: 2, mode: RetCon, pads: 1,
			build: func(int) func() (*mem.Image, []*isa.Program) { return busyValueScenario(-5) }},
		{name: "retcon-symbolic-counter", cores: 2, mode: RetCon, pads: 1,
			// The counter is loaded from the tracked block, so every bgt
			// constrains its root: the loop must run instruction by
			// instruction. The other cores' busy loops fast-forward.
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
				lock := runBusyRow(t, p, SchedLockstep, probe, true, nil, build)
				for _, record := range []bool{true, false} {
					ev := runBusyRow(t, p, SchedEvent, nil, record, row.prior, build)
					lock.compare(t, ev, record)
					sched.BusySkipped += ev.sched.BusySkipped
				}
				if row.wantErr != (lock.err != nil) {
					t.Fatalf("pad=%d: lockstep error %v, want error: %v", pad, lock.err, row.wantErr)
				}
				if row.check != nil && lock.res != nil {
					row.check(t, lock.res)
				}
			}
			if sched.BusySkipped <= 0 {
				t.Error("no busy-loop instruction was charged in bulk: the fast-forward never fired")
			}
			if row.watch != nil && (!seen[0] || !seen[1]) {
				t.Errorf("lockstep PCs at the unwind points, as offsets from the loop's addi: %v; want both the addi (0) and the bgt (1)", seen)
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
// observer, when it is non-nil), recording its events when record is set.
// With prior set, the machine first runs prior until its first commit
// interrupts it, and is then Reset for the run.
func runBusyRow(t *testing.T, p Params, kind SchedKind, probe *probeSched, record bool,
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
	if record {
		m.Record(telemetry.NewRecorder(&out.trace, 0))
	} else {
		out.name += "-unrecorded"
	}
	out.res, out.err = m.Run()
	out.sched = m.SchedStats()
	return out
}

// compare requires run ev to match lockstep's run l: the same Result or
// the same error, the same final image and, when ev recorded, the same
// events.
func (l *busyRowRun) compare(t *testing.T, ev *busyRowRun, traced bool) {
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
	if traced && !reflect.DeepEqual(l.trace, ev.trace) {
		t.Errorf("traces diverge: lockstep %d events, %s %d", len(l.trace), ev.name, len(ev.trace))
	}
}

// interruptMidLoop runs prior on m until its first commit interrupts it,
// and requires the run to stop with an InterruptedError while some core
// is inside a busy loop the event loop ran in one step.
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
		if c.loopEnd > m.Now {
			return
		}
	}
	t.Fatalf("interrupted at cycle %d with no core inside a fast-forwarded busy loop", m.Now)
}
