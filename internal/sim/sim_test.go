package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// buildCounter builds the canonical shared-counter programs: each of n
// cores runs ops transactions of incs increments, with optional private
// busy work, then a barrier and halt.
func buildCounter(cores, ops, incs, busy int) (*mem.Image, int64, []*isa.Program) {
	img := mem.NewImage()
	counter := img.AllocBlocks(mem.BlockSize)
	progs := make([]*isa.Program, cores)
	for i := 0; i < cores; i++ {
		b := isa.NewBuilder("counter")
		b.Li(isa.R(5), 0)
		b.Label("loop")
		b.TxBegin()
		for k := 0; k < incs; k++ {
			b.Ld(isa.R(10), isa.Zero, counter, 8)
			b.Addi(isa.R(10), isa.R(10), 1)
			b.St(isa.R(10), isa.Zero, counter, 8)
		}
		if busy > 0 {
			b.BusyLoop(isa.R(11), int64(busy), "busy")
		}
		b.TxCommit()
		b.Addi(isa.R(5), isa.R(5), 1)
		b.Li(isa.R(6), int64(ops))
		b.Blt(isa.R(5), isa.R(6), "loop")
		b.Barrier()
		b.Halt()
		progs[i] = b.MustAssemble()
	}
	return img, counter, progs
}

func testParams(cores int, mode Mode) Params {
	p := DefaultParams()
	p.Cores = cores
	p.Mode = mode
	return p
}

func runMachine(t *testing.T, p Params, img *mem.Image, progs []*isa.Program) *Result {
	t.Helper()
	m, err := New(p, img, progs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCounterAtomicityAllModes is the fundamental correctness check: no
// increment may ever be lost, under any mode or machine size.
func TestCounterAtomicityAllModes(t *testing.T) {
	for _, mode := range []Mode{Eager, LazyVB, RetCon} {
		for _, cores := range []int{1, 2, 3, 8, 32} {
			img, counter, progs := buildCounter(cores, 6, 2, 10)
			res := runMachine(t, testParams(cores, mode), img, progs)
			want := int64(cores * 6 * 2)
			if got := img.Read64(counter); got != want {
				t.Errorf("mode=%v cores=%d: counter=%d want %d", mode, cores, got, want)
			}
			tot := res.Totals()
			if tot.Commits != int64(cores*6) {
				t.Errorf("mode=%v cores=%d: commits=%d want %d", mode, cores, tot.Commits, cores*6)
			}
			if res.Metrics.AbortCause[telemetry.CauseSpecOverflow] != 0 {
				t.Errorf("mode=%v cores=%d: unexpected spec overflow", mode, cores)
			}
		}
	}
}

// TestCounterAtomicityQuick drives random machine shapes through all
// modes (property-based atomicity).
func TestCounterAtomicityQuick(t *testing.T) {
	f := func(coresRaw, opsRaw, incsRaw, busyRaw uint8, modeRaw uint8) bool {
		cores := 1 + int(coresRaw%8)
		ops := 1 + int(opsRaw%5)
		incs := 1 + int(incsRaw%3)
		busy := int(busyRaw % 16)
		mode := Mode(modeRaw % 3)
		img, counter, progs := buildCounter(cores, ops, incs, busy)
		m, err := New(testParams(cores, mode), img, progs)
		if err != nil {
			return false
		}
		if _, err := m.Run(); err != nil {
			return false
		}
		return img.Read64(counter) == int64(cores*ops*incs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRetConEliminatesCounterConflicts checks the headline mechanism: with
// symbolic repair, the counter workload stops aborting and runs much
// faster than the eager baseline.
func TestRetConEliminatesCounterConflicts(t *testing.T) {
	img1, _, progs1 := buildCounter(16, 16, 2, 16)
	eager := runMachine(t, testParams(16, Eager), img1, progs1)
	img2, _, progs2 := buildCounter(16, 16, 2, 16)
	rc := runMachine(t, testParams(16, RetCon), img2, progs2)

	if rc.Cycles*3 > eager.Cycles {
		t.Errorf("RETCON should be >3x faster on pure counter conflicts: eager %d vs retcon %d", eager.Cycles, rc.Cycles)
	}
	et, rt := eager.Totals(), rc.Totals()
	if rt.Aborts*10 > et.Aborts {
		t.Errorf("RETCON aborts %d should be <10%% of eager aborts %d", rt.Aborts, et.Aborts)
	}
	if rc.Retcon.Txs == 0 || rc.Retcon.SumStores == 0 {
		t.Error("RETCON stats must show symbolic stores")
	}
}

// TestFigure8Scenario walks the paper's Figure 8 example end to end: a
// transaction loads block A, computes A+1, branches on it, stores it back,
// loses A to a remote writer mid-transaction, and must repair at commit:
// the final value of A is remoteValue+increment and the constraints hold.
func TestFigure8Scenario(t *testing.T) {
	img := mem.NewImage()
	a := img.AllocBlocks(mem.BlockSize)
	bAddr := img.AllocBlocks(mem.BlockSize)
	flag := img.AllocBlocks(mem.BlockSize)
	img.Write64(a, 5) // initial [A] = 5 as in Figure 8

	// Core 0: the Figure 8 transaction (expanded to our ISA):
	//   ld r1,[A]; r2=r1+1; branch r2>1; st r2,[B]; ld r1,[B]; r1+=2;
	//   branch r1<10; st r1,[A]; st 0,[B]; commit
	b0 := isa.NewBuilder("fig8-p0")
	// Warm the predictor: a first transaction over A long enough that core
	// 1's early plain store is guaranteed to conflict with it.
	b0.TxBegin()
	b0.Ld(isa.R(1), isa.Zero, a, 8)
	b0.Addi(isa.R(1), isa.R(1), 1)
	b0.St(isa.R(1), isa.Zero, a, 8)
	b0.TxCommit()
	b0.Li(isa.R(9), 1)
	b0.St(isa.R(9), isa.Zero, flag, 8) // signal core 1 to interfere
	b0.BusyLoop(isa.R(8), 40, "wait")
	b0.TxBegin()
	b0.Ld(isa.R(1), isa.Zero, a, 8)
	b0.Addi(isa.R(2), isa.R(1), 1)
	b0.Li(isa.R(3), 1)
	b0.Bgt(isa.R(2), isa.R(3), "t1") // r2 > 1, taken
	b0.Label("t1")
	b0.St(isa.R(2), isa.Zero, bAddr, 8)
	b0.Ld(isa.R(1), isa.Zero, bAddr, 8) // forwards from the SSB
	b0.Addi(isa.R(1), isa.R(1), 2)
	b0.BusyLoop(isa.R(8), 300, "lose") // window for core 1 to steal A
	b0.Li(isa.R(3), 1000)
	b0.Blt(isa.R(1), isa.R(3), "t2") // r1 < 1000, taken
	b0.Label("t2")
	b0.St(isa.R(1), isa.Zero, a, 8)
	b0.Li(isa.R(4), 0)
	b0.St(isa.R(4), isa.Zero, bAddr, 8)
	b0.TxCommit()
	b0.Barrier()
	b0.Halt()

	// Core 1: immediately stores to A (this lands inside core 0's warm-up
	// transaction, whose cold miss takes >100 cycles, training core 0's
	// predictor on A), then waits for the flag and steals A mid-transaction.
	b1 := isa.NewBuilder("fig8-p1")
	b1.Li(isa.R(2), 5)
	b1.St(isa.R(2), isa.Zero, a, 8) // conflicting plain store: trains core 0
	b1.Label("spin")
	b1.Ld(isa.R(1), isa.Zero, flag, 8)
	b1.Beq(isa.R(1), isa.Zero, "spin")
	b1.BusyLoop(isa.R(3), 120, "delay") // land inside core 0's transaction
	b1.Li(isa.R(2), 6)
	b1.St(isa.R(2), isa.Zero, a, 8) // remote write: steals A
	b1.Barrier()
	b1.Halt()

	p := testParams(2, RetCon)
	res := runMachine(t, p, img, []*isa.Program{b0.MustAssemble(), b1.MustAssemble()})

	// Final [A]: core 1 wrote 6 mid-transaction; core 0's transaction adds
	// +3 on top of whatever it reacquires at commit (r1 = [A]+3) — so 9,
	// provided core 0's commit repaired rather than aborted.
	if got := img.Read64(a); got != 9 {
		t.Fatalf("[A] = %d, want 9 (remote 6 + symbolic increment 3)", got)
	}
	if got := img.Read64(bAddr); got != 0 {
		t.Fatalf("[B] = %d, want 0 (non-symbolic final store)", got)
	}
	if res.Retcon.SumLost == 0 {
		t.Error("the block must have been recorded as lost")
	}
	if res.Metrics.AbortCause[telemetry.CauseConstraintViolation] != 0 {
		t.Error("constraints [A]>? were satisfiable; no violation expected")
	}
}

// TestConstraintViolationAborts: a transaction branches on a tracked value
// and the remote update breaks the constraint, forcing an abort and a
// correct re-execution.
func TestConstraintViolationAborts(t *testing.T) {
	img := mem.NewImage()
	a := img.AllocBlocks(mem.BlockSize)
	out := img.AllocBlocks(mem.BlockSize)
	flag := img.AllocBlocks(mem.BlockSize)
	img.Write64(a, 5)

	// Core 0: tx { r1=[A]; if r1 < 10 -> out=1 else out=2 }, with a window
	// in which core 1 sets A=50, violating the r1<10 constraint.
	b0 := isa.NewBuilder("viol-p0")
	b0.TxBegin() // warm-up transaction; core 1's early store conflicts here
	b0.Ld(isa.R(1), isa.Zero, a, 8)
	b0.Addi(isa.R(1), isa.R(1), 1)
	b0.St(isa.R(1), isa.Zero, a, 8)
	b0.TxCommit()
	b0.Li(isa.R(9), 1)
	b0.St(isa.R(9), isa.Zero, flag, 8)
	b0.BusyLoop(isa.R(8), 40, "wait")
	b0.TxBegin()
	b0.Ld(isa.R(1), isa.Zero, a, 8)
	b0.BusyLoop(isa.R(8), 300, "lose")
	b0.Li(isa.R(3), 10)
	b0.Bge(isa.R(1), isa.R(3), "big")
	b0.Li(isa.R(4), 1)
	b0.Jmp("store")
	b0.Label("big")
	b0.Li(isa.R(4), 2)
	b0.Label("store")
	b0.St(isa.R(4), isa.Zero, out, 8)
	b0.TxCommit()
	b0.Barrier()
	b0.Halt()

	b1 := isa.NewBuilder("viol-p1")
	b1.Li(isa.R(2), 5)
	b1.St(isa.R(2), isa.Zero, a, 8) // trains core 0's predictor on A
	b1.Label("spin")
	b1.Ld(isa.R(1), isa.Zero, flag, 8)
	b1.Beq(isa.R(1), isa.Zero, "spin")
	b1.BusyLoop(isa.R(3), 120, "delay") // land inside core 0's transaction
	b1.Li(isa.R(2), 50)
	b1.St(isa.R(2), isa.Zero, a, 8)
	b1.Barrier()
	b1.Halt()

	res := runMachine(t, testParams(2, RetCon), img, []*isa.Program{b0.MustAssemble(), b1.MustAssemble()})

	// Whatever the interleaving, serializability demands: out reflects the
	// final branch taken against the value core 0 actually committed with.
	got := img.Read64(out)
	if got != 2 && got != 1 {
		t.Fatalf("out = %d", got)
	}
	if img.Read64(a) == 50 && got == 1 {
		// A=50 at core 0's commit means the constraint r1<10 was violated;
		// re-execution must have taken the 'big' path.
		if res.Metrics.AbortCause[telemetry.CauseConstraintViolation] == 0 {
			t.Error("expected a recorded constraint violation")
		}
		t.Fatalf("out = 1 contradicts committed A = 50")
	}
}

// TestSubWordAccess exercises 1/2/4-byte transactional accesses.
func TestSubWordAccess(t *testing.T) {
	img := mem.NewImage()
	base := img.AllocBlocks(mem.BlockSize)
	b := isa.NewBuilder("subword")
	b.TxBegin()
	b.Li(isa.R(1), 0x11223344AABBCCDD)
	b.St(isa.R(1), isa.Zero, base, 8)
	b.Ld(isa.R(2), isa.Zero, base+2, 2) // 2-byte load
	b.Li(isa.R(3), 0xFF)
	b.St(isa.R(3), isa.Zero, base+4, 1) // 1-byte store
	b.Ld(isa.R(4), isa.Zero, base, 4)   // 4-byte load
	b.TxCommit()
	b.St(isa.R(2), isa.Zero, base+8, 8)
	b.St(isa.R(4), isa.Zero, base+16, 8)
	b.Barrier()
	b.Halt()
	for _, mode := range []Mode{Eager, LazyVB, RetCon} {
		img2 := mem.NewImage()
		img2.AllocBlocks(mem.BlockSize)
		runMachine(t, testParams(1, mode), img2, []*isa.Program{b.MustAssemble()})
		if got := img2.Read64(base + 8); got != 0xAABB {
			t.Errorf("mode %v: 2-byte load = %#x, want 0xAABB", mode, got)
		}
		if got := img2.Read64(base + 16); got != 0xAABBCCDD {
			t.Errorf("mode %v: 4-byte load = %#x, want 0xAABBCCDD", mode, got)
		}
		if got := img2.Read64(base); got != 0x112233FF_AABBCCDD {
			t.Errorf("mode %v: committed word = %#x, want byte store applied at offset 4", mode, uint64(got))
		}
	}
}

// TestBarrierSynchronizes: a two-phase program where phase 2 must observe
// phase 1 of every core.
func TestBarrierSynchronizes(t *testing.T) {
	img := mem.NewImage()
	arr := img.AllocBlocks(4 * mem.BlockSize)
	out := img.AllocBlocks(4 * mem.BlockSize)
	progs := make([]*isa.Program, 4)
	for i := 0; i < 4; i++ {
		b := isa.NewBuilder("barrier")
		b.Li(isa.R(1), int64(i+1))
		b.St(isa.R(1), isa.Zero, arr+int64(i)*mem.BlockSize, 8)
		b.Barrier()
		// After the barrier every core sums all slots.
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
	res := runMachine(t, testParams(4, Eager), img, progs)
	for i := 0; i < 4; i++ {
		if got := img.Read64(out + int64(i)*mem.BlockSize); got != 10 {
			t.Errorf("core %d saw sum %d, want 10", i, got)
		}
	}
	tot := res.Totals()
	if tot.Cycles[CatBarrier] == 0 {
		t.Error("barrier cycles must be attributed")
	}
}

// TestBreakdownAccounting: attributed categories are non-negative and the
// sum of fractions is 1.
func TestBreakdownAccounting(t *testing.T) {
	img, _, progs := buildCounter(8, 8, 2, 12)
	res := runMachine(t, testParams(8, Eager), img, progs)
	bd := res.Breakdown()
	var sum float64
	for cat, f := range bd {
		if f < 0 {
			t.Errorf("category %v fraction %f < 0", Category(cat), f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown sums to %f", sum)
	}
	tot := res.Totals()
	for cat := 0; cat < int(NumCategories); cat++ {
		if tot.Cycles[cat] < 0 {
			t.Errorf("category %v has negative cycles %d", Category(cat), tot.Cycles[cat])
		}
	}
}

// TestDeterminism: identical inputs produce identical cycle counts and
// final memory.
func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		img, counter, progs := buildCounter(8, 8, 2, 8)
		m, _ := New(testParams(8, RetCon), img, progs)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, img.Read64(counter)
	}
	c1, v1 := run()
	c2, v2 := run()
	if c1 != c2 || v1 != v2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", c1, v1, c2, v2)
	}
}

// TestSpecOverflowAborts: a transaction touching more blocks than the
// speculative-metadata capacity must abort with the overflow statistic,
// not corrupt memory. With a tiny capacity and a single core, the retry
// loops forever; the watchdog converts that into an error, which is the
// documented OneTM-fallback boundary of this model.
func TestSpecOverflowAborts(t *testing.T) {
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
	p.SpecCapacity = 4
	p.MaxCycles = 50_000
	m, err := New(p, img, []*isa.Program{b.MustAssemble()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("expected watchdog: capacity overflow cannot commit")
	}
	if m.metrics.AbortCause[telemetry.CauseSpecOverflow] == 0 {
		t.Error("overflow statistic must be recorded")
	}
}

// TestNonTxWinsConflicts: a non-transactional store must abort a
// conflicting transaction rather than deadlock.
func TestNonTxWinsConflicts(t *testing.T) {
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
	b1.St(isa.R(1), isa.Zero, x, 8) // non-transactional conflicting store
	b1.Barrier()
	b1.Halt()

	runMachine(t, testParams(2, Eager), img, []*isa.Program{b0.MustAssemble(), b1.MustAssemble()})
	// The transaction retried after the plain store: final x = 101.
	if got := img.Read64(x); got != 101 {
		t.Errorf("x = %d, want 101 (tx increment serialized after plain store)", got)
	}
}

// TestIdealizedKnobs: the §5.3 idealized configuration must still be
// correct and at least as fast.
func TestIdealizedKnobs(t *testing.T) {
	img1, c1, p1 := buildCounter(8, 8, 2, 8)
	def := runMachine(t, testParams(8, RetCon), img1, p1)
	wantV := img1.Read64(c1)

	p := testParams(8, RetCon)
	p.IdealUnlimited = true
	p.IdealParallelReacquire = true
	p.IdealZeroStoreLatency = true
	img2, c2, p2 := buildCounter(8, 8, 2, 8)
	ideal := runMachine(t, p, img2, p2)
	if img2.Read64(c2) != wantV {
		t.Fatal("idealized run lost updates")
	}
	if ideal.Cycles > def.Cycles {
		t.Errorf("idealized (%d cycles) must not be slower than default (%d)", ideal.Cycles, def.Cycles)
	}
}

// TestLazyVBFalseSharingImmunity: two cores write DIFFERENT words of the
// same block; eager conflicts on the block, lazy-vb (value-based) commits
// without interference once the predictor engages.
func TestLazyVBFalseSharingImmunity(t *testing.T) {
	build := func() (*mem.Image, int64, []*isa.Program) {
		img := mem.NewImage()
		blk := img.AllocBlocks(mem.BlockSize)
		progs := make([]*isa.Program, 2)
		for i := 0; i < 2; i++ {
			b := isa.NewBuilder("fs")
			off := int64(i * 8)
			b.Li(isa.R(5), 0)
			b.Label("loop")
			b.TxBegin()
			b.Ld(isa.R(1), isa.Zero, blk+off, 8)
			b.Addi(isa.R(1), isa.R(1), 1)
			b.St(isa.R(1), isa.Zero, blk+off, 8)
			b.BusyLoop(isa.R(2), 12, "busy")
			b.TxCommit()
			b.Addi(isa.R(5), isa.R(5), 1)
			b.Li(isa.R(6), 24)
			b.Blt(isa.R(5), isa.R(6), "loop")
			b.Barrier()
			b.Halt()
			progs[i] = b.MustAssemble()
		}
		return img, blk, progs
	}
	img1, blk1, p1 := build()
	eager := runMachine(t, testParams(2, Eager), img1, p1)
	img2, blk2, p2 := build()
	lazy := runMachine(t, testParams(2, LazyVB), img2, p2)

	for _, c := range []struct {
		img *mem.Image
		blk int64
	}{{img1, blk1}, {img2, blk2}} {
		if c.img.Read64(c.blk) != 24 || c.img.Read64(c.blk+8) != 24 {
			t.Fatal("lost updates")
		}
	}
	if lazy.Totals().Aborts >= eager.Totals().Aborts {
		t.Errorf("lazy-vb should abort less on pure false sharing: eager %d vs lazy %d",
			eager.Totals().Aborts, lazy.Totals().Aborts)
	}
}

func TestValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	p.Cores = 0
	if err := p.Validate(); err == nil {
		t.Error("0 cores must be invalid")
	}
	p = DefaultParams()
	p.Mode = Mode(9)
	if err := p.Validate(); err == nil {
		t.Error("bad mode must be invalid")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode must render")
	}
}

// TestValidateNamesField: every configuration no machine can be built or
// run with fails Validate with a *ParamError naming the field, instead of
// panicking in cache construction or running to the cycle watchdog.
func TestValidateNamesField(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Params)
	}{
		{"Cores", func(p *Params) { p.Cores = 65 }},
		{"Mode", func(p *Params) { p.Mode = Mode(-1) }},
		{"Sched", func(p *Params) { p.Sched = SchedKind(9) }},
		{"MaxCycles", func(p *Params) { p.MaxCycles = 0 }},
		{"Ways", func(p *Params) { p.Ways = 0 }},
		{"Ways", func(p *Params) { p.Ways = -2 }},
		{"Ways", func(p *Params) { p.Ways = 3 }}, // 341.3 L1 sets, 5461.3 L2 sets
		{"L1Bytes", func(p *Params) { p.L1Bytes = 0 }},
		{"L1Bytes", func(p *Params) { p.L1Bytes = 48 << 10 }},
		{"L2Bytes", func(p *Params) { p.L2Bytes = 0 }},
		{"L2Bytes", func(p *Params) { p.L2Bytes = -1 << 20 }},
		{"L1Hit", func(p *Params) { p.L1Hit = -1 }},
		{"L2Hit", func(p *Params) { p.L2Hit = -1 }},
		{"Hop", func(p *Params) { p.Hop = -20 }},
		{"DRAM", func(p *Params) { p.DRAM = -1 }},
		{"DRAMOccupancy", func(p *Params) { p.DRAMOccupancy = -1 }},
		{"SpecCapacity", func(p *Params) { p.SpecCapacity = 0 }},
		{"SpecCapacity", func(p *Params) { p.SpecCapacity = -1 }},
	} {
		p := DefaultParams()
		tc.set(&p)
		err := p.Validate()
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != tc.field {
			t.Errorf("Validate of a bad %s = %v, want a *ParamError naming %s", tc.field, err, tc.field)
		}
	}
	// The smallest and the unusual-but-buildable values stay valid.
	for _, set := range []func(*Params){
		func(p *Params) { p.L1Hit, p.L2Hit, p.Hop, p.DRAM, p.DRAMOccupancy = 0, 0, 0, 0, 0 },
		func(p *Params) { p.SpecCapacity = 1 },
		func(p *Params) { p.Ways, p.L1Bytes, p.L2Bytes = 3, 3*64*256, 3*64*4096 },
		func(p *Params) { p.Ways, p.L1Bytes, p.L2Bytes = 1, 64, 64 },
	} {
		p := DefaultParams()
		set(&p)
		if err := p.Validate(); err != nil {
			t.Errorf("buildable configuration rejected: %v", err)
		}
	}
}

func TestProgramMismatch(t *testing.T) {
	img := mem.NewImage()
	if _, err := New(testParams(2, Eager), img, nil); err == nil {
		t.Error("program count mismatch must error")
	}
}

// TestOnCommitObserver: the commit hook fires once per commit with the
// undo log still intact, and a hook error stops the run under both
// schedulers at the same simulated instant.
func TestOnCommitObserver(t *testing.T) {
	for _, kind := range []SchedKind{SchedLockstep, SchedEvent} {
		img, _, progs := buildCounter(2, 3, 2, 4)
		p := testParams(2, Eager)
		p.Sched = kind
		m, err := New(p, img, progs)
		if err != nil {
			t.Fatal(err)
		}
		var commits int
		m.OnCommit(func(mm *Machine, c *Core) error {
			commits++
			if !c.Tx.Active {
				t.Error("hook must run before version-management state is discarded")
			}
			if len(c.Tx.Undo) == 0 {
				t.Error("undo log must still be intact in the hook")
			}
			return nil
		})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if commits != 2*3 {
			t.Errorf("sched=%v: hook fired %d times, want 6", kind, commits)
		}
	}

	errs := make(map[SchedKind]string, 2)
	cycles := make(map[SchedKind]int64, 2)
	for _, kind := range []SchedKind{SchedLockstep, SchedEvent} {
		img, _, progs := buildCounter(2, 3, 1, 4)
		p := testParams(2, Eager)
		p.Sched = kind
		m, err := New(p, img, progs)
		if err != nil {
			t.Fatal(err)
		}
		fired := 0
		m.OnCommit(func(mm *Machine, c *Core) error {
			fired++
			if fired == 3 {
				return fmt.Errorf("stop at commit 3")
			}
			return nil
		})
		if _, err := m.Run(); err == nil {
			t.Fatalf("sched=%v: hook error must propagate", kind)
		} else {
			errs[kind] = err.Error()
			cycles[kind] = m.Now
		}
	}
	if errs[SchedLockstep] != errs[SchedEvent] || cycles[SchedLockstep] != cycles[SchedEvent] {
		t.Errorf("hook-error stops diverge: %q@%d vs %q@%d",
			errs[SchedLockstep], cycles[SchedLockstep], errs[SchedEvent], cycles[SchedEvent])
	}
}

// TestNewRejectsInvalidProgram: machine construction validates programs
// (the fuzz-generator hook) instead of panicking mid-run.
func TestNewRejectsInvalidProgram(t *testing.T) {
	img := mem.NewImage()
	bad := &isa.Program{Name: "bad", Instrs: []isa.Instr{{Op: isa.Jmp, Target: 99}}}
	if _, err := New(testParams(1, Eager), img, []*isa.Program{bad}); err == nil {
		t.Fatal("invalid program must be rejected at construction")
	}
}
