package fuzz

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestCorpusReplay re-runs every committed reproducer under all three
// oracles. Each corpus entry is the minimized form of a divergence that
// was found by fuzzing and fixed in-tree (the entry's Bug field tells the
// story); this test keeps every one of those bugs fixed. It runs in
// -short mode: the programs are tiny by construction.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("corpus has %d entries, want the committed reproducers", len(entries))
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if d := Check(&e.Prog, Options{}); d != nil {
				t.Errorf("historical bug resurfaced (%s):\n%v\nstory: %s", e.Oracle, d, e.Bug)
			}
		})
	}
}

// TestGenerateDeterministic: Generate is a pure function of (seed, opts),
// and compilation of the same program is byte-stable.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, 9999} {
		a := Generate(seed, GenOptions{})
		b := Generate(seed, GenOptions{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated program invalid: %v", seed, err)
		}
		imgA, progsA, _, err := Compile(a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		imgB, progsB, _, _ := Compile(b)
		if !imgA.Equal(imgB) {
			t.Fatalf("seed %d: initial images differ", seed)
		}
		for i := range progsA {
			if !reflect.DeepEqual(progsA[i].Instrs, progsB[i].Instrs) {
				t.Fatalf("seed %d: core %d programs differ", seed, i)
			}
		}
	}
}

// TestGeneratedSweep is the smoke gate: a block of seeds must pass every
// oracle. The full retcon-fuzz CLI covers far larger ranges; this keeps a
// regression-sized slice in `go test`.
func TestGeneratedSweep(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < n; seed++ {
		if d := Check(Generate(seed, GenOptions{Small: true}), Options{}); d != nil {
			t.Fatalf("seed %d: %v", seed, d)
		}
	}
}

// TestGeneratedBusyLoopsFastForward: the differential oracles check the
// event loop's runs of local instructions, and the busy loops it folds
// inside them, only if generated programs reach them. Over the seeds
// TestGeneratedSweep checks even in -short mode, the event runs,
// recorded as Check records them, must charge some instruction inside a
// run in every mode.
func TestGeneratedBusyLoopsFastForward(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
		var folded int64
		for seed := int64(0); seed < 40; seed++ {
			img, progs, _, err := Compile(Generate(seed, GenOptions{Small: true}))
			if err != nil {
				t.Fatal(err)
			}
			p := sim.DefaultParams()
			p.Cores, p.Mode = len(progs), mode
			m, err := sim.New(p, img, progs)
			if err != nil {
				t.Fatal(err)
			}
			m.Record(newEventLog().rec)
			if _, err := m.Run(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			folded += m.SchedStats().RunInstrs
		}
		if folded <= 0 {
			t.Errorf("mode %v: no generated program ran an instruction inside a run", mode)
		}
	}
}

// TestExpectations pins the static model on a hand-built program:
// counter sums with wrap, lane last-writes, per-core commit counts.
func TestExpectations(t *testing.T) {
	p := &Prog{
		Cores: 2,
		Words: []WordSpec{{Init: 10}, {Lane: true, Init: 0x1111}},
		Threads: [][]Stmt{
			{{Kind: KLoop, N: 3, Body: []Stmt{
				{Kind: KTx, Body: []Stmt{{Kind: KAdd, Tgt: 0, N: 5}}},
			}}},
			{{Kind: KTx, Body: []Stmt{
				{Kind: KAdd, Tgt: 0, N: -1},
				{Kind: KLane, Tgt: 1, N: 0xab, Size: 1},
				{Kind: KLane, Tgt: 1, N: 0xcd, Size: 1}, // later store wins
			}}},
		},
	}
	ex, err := p.expectations()
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.counters[0]; got != 10+3*5-1 {
		t.Errorf("counter expectation = %d, want %d", got, 10+3*5-1)
	}
	// Core 1's size-1 lane is byte 1: 0x1111 -> 0xcd11.
	if got := ex.lanes[1]; got != 0xcd11 {
		t.Errorf("lane expectation = %#x, want 0xcd11", got)
	}
	if ex.commits[0] != 3 || ex.commits[1] != 1 {
		t.Errorf("commit expectations = %v, want [3 1]", ex.commits)
	}
}

// TestValidateRejects enumerates the structural rules the generator and
// corpus loader rely on.
func TestValidateRejects(t *testing.T) {
	base := func() *Prog {
		return &Prog{Cores: 1, Words: []WordSpec{{}}, Threads: [][]Stmt{{}}}
	}
	cases := []struct {
		name string
		mut  func(*Prog)
	}{
		{"nested tx", func(p *Prog) {
			p.Threads[0] = []Stmt{{Kind: KTx, Body: []Stmt{{Kind: KTx, Body: []Stmt{{Kind: KAdd}}}}}}
		}},
		{"add outside tx", func(p *Prog) {
			p.Threads[0] = []Stmt{{Kind: KAdd}}
		}},
		{"barrier in tx", func(p *Prog) {
			p.Threads[0] = []Stmt{{Kind: KTx, Body: []Stmt{{Kind: KBarrier}}}}
		}},
		{"add to lane word", func(p *Prog) {
			p.Words[0].Lane = true
			p.Threads[0] = []Stmt{{Kind: KTx, Body: []Stmt{{Kind: KAdd}}}}
		}},
		{"save before load", func(p *Prog) {
			p.Threads[0] = []Stmt{{Kind: KTx, Body: []Stmt{{Kind: KSave}}}}
		}},
		{"probe without table", func(p *Prog) {
			p.Threads[0] = []Stmt{{Kind: KTx, Body: []Stmt{{Kind: KProbe, N: 3}}}}
		}},
		{"probe in loop", func(p *Prog) {
			p.TableSlots = 8
			p.Threads[0] = []Stmt{{Kind: KLoop, N: 2, Body: []Stmt{
				{Kind: KTx, Body: []Stmt{{Kind: KProbe, N: 3}}},
			}}}
		}},
		{"mixed lane sizes", func(p *Prog) {
			p.Words[0].Lane = true
			p.Threads[0] = []Stmt{{Kind: KTx, Body: []Stmt{
				{Kind: KLane, Tgt: 0, Size: 1}, {Kind: KLane, Tgt: 0, Size: 2},
			}}}
		}},
		{"shared add gated by branch", func(p *Prog) {
			p.Threads[0] = []Stmt{{Kind: KTx, Body: []Stmt{
				{Kind: KBranch, Tgt: 0, Cmp: "beq", Body: []Stmt{{Kind: KAdd}}},
			}}}
		}},
	}
	for _, c := range cases {
		p := base()
		c.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validation must fail", c.name)
		}
	}
}

// TestShrink: the shrinker minimizes against an arbitrary predicate and
// only emits valid programs.
func TestShrink(t *testing.T) {
	p := Generate(48, GenOptions{Small: true})
	// Predicate: program still contains a lane store. The minimal such
	// program is one core, one tx, one lane stmt.
	hasLane := func(q *Prog) bool { return hasKind(q.Threads, KLane) }
	if !hasLane(p) {
		t.Skip("seed lost its lane store; pick another seed")
	}
	min := Shrink(p, hasLane, 2000)
	if err := min.Validate(); err != nil {
		t.Fatalf("shrunk program invalid: %v", err)
	}
	if !hasLane(min) {
		t.Fatal("shrinker lost the failure predicate")
	}
	count := 0
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for i := range ss {
			count++
			walk(ss[i].Body)
		}
	}
	for _, th := range min.Threads {
		walk(th)
	}
	if min.Cores != 1 || count > 2 {
		t.Errorf("shrink left %d cores / %d stmts; want 1 core, <=2 stmts", min.Cores, count)
	}
}

// FuzzDifferential is the native fuzzing entry point: go test -fuzz
// explores seeds beyond the fixed sweep, checking every oracle on each.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{0, 48, 62, 283, 618, 2271} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := Generate(seed, GenOptions{Small: true})
		if d := Check(p, Options{}); d != nil {
			t.Fatalf("seed %d: %v", seed, d)
		}
	})
}

// BenchmarkCheck is the per-layer cost of a fuzz pass: Generate plus
// Check over a fixed block of 200 generator seeds per op.
func BenchmarkCheck(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		for seed := int64(0); seed < 200; seed++ {
			if d := Check(Generate(seed, GenOptions{}), Options{}); d != nil {
				b.Fatal(d)
			}
		}
	}
}

// TestGeneratedParkedRetries reaches the event scheduler's parked-NACK
// path with generated programs. Check records every run, and a recorded
// run never parks, so this runs each program once more per scheduler
// with no recorder and requires lockstep's Result and final image from
// the event run. Most programs NACK, so every mode must park some core.
func TestGeneratedParkedRetries(t *testing.T) {
	for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
		parked := 0
		for seed := int64(0); seed < 200; seed++ {
			prog := Generate(seed, GenOptions{})
			img, progs, _, err := Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			var res [2]*sim.Result
			var imgs [2]*mem.Image
			for i, kind := range []sim.SchedKind{sim.SchedLockstep, sim.SchedEvent} {
				imgs[i] = img.Clone()
				m, err := sim.New(runParams(prog, mode, kind, Options{}), imgs[i], progs)
				if err != nil {
					t.Fatal(err)
				}
				if res[i], err = m.Run(); err != nil {
					t.Fatalf("seed %d mode %v sched %v: %v", seed, mode, kind, err)
				}
				if kind == sim.SchedEvent && m.SchedStats().ParkedRetries > 0 {
					parked++
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Errorf("seed %d mode %v: results diverge:\nlockstep: %+v\nevent:    %+v", seed, mode, res[0], res[1])
			}
			if !imgs[0].Equal(imgs[1]) {
				t.Errorf("seed %d mode %v: final memory diverges at word %#x", seed, mode, imgs[0].DiffWord(imgs[1]))
			}
		}
		t.Logf("mode %v: %d/200 programs parked a NACKed core", mode, parked)
		if parked == 0 {
			t.Errorf("mode %v: no generated program parked a NACKed core", mode)
		}
	}
}
