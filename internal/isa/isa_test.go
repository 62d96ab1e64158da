package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if Op(200).String() != "op(200)" {
		t.Error("unknown opcode must render as op(n)")
	}
}

func TestIsBranch(t *testing.T) {
	branches := map[Op]bool{Beq: true, Bne: true, Blt: true, Bge: true, Ble: true, Bgt: true}
	for op := Nop; op < numOps; op++ {
		if op.IsBranch() != branches[op] {
			t.Errorf("%v IsBranch = %v", op, op.IsBranch())
		}
	}
}

func TestRegisterHelper(t *testing.T) {
	if R(0) != Zero || R(31) != Reg(31) {
		t.Error("R helper broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("R(32) must panic")
		}
	}()
	R(32)
}

func TestBuilderAssemble(t *testing.T) {
	b := NewBuilder("t")
	b.Li(R(1), 5)
	b.Label("loop")
	b.Addi(R(1), R(1), -1)
	b.Bgt(R(1), Zero, "loop")
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("program length %d, want 4", p.Len())
	}
	if p.Instrs[2].Target != 1 {
		t.Errorf("branch target = %d, want 1", p.Instrs[2].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Jmp("nowhere")
	if _, err := b.Assemble(); err == nil {
		t.Error("undefined label must fail assembly")
	}
}

func TestBuilderEmptyProgram(t *testing.T) {
	if _, err := NewBuilder("t").Assemble(); err == nil {
		t.Error("empty program must fail assembly")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Label("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate label must panic")
		}
	}()
	b.Label("x")
}

func TestBuilderBadSize(t *testing.T) {
	b := NewBuilder("t")
	defer func() {
		if recover() == nil {
			t.Error("invalid access size must panic")
		}
	}()
	b.Ld(R(1), R(2), 0, 3)
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		emit func(b *Builder)
		want string
	}{
		{func(b *Builder) { b.Li(R(1), 7) }, "li r1, 7"},
		{func(b *Builder) { b.Ld(R(2), R(3), 16, 8) }, "ld8 r2, [r3+16]"},
		{func(b *Builder) { b.St(R(4), R(5), 8, 4) }, "st4 r4, [r5+8]"},
		{func(b *Builder) { b.TxBegin() }, "txbegin"},
		{func(b *Builder) { b.Add(R(1), R(2), R(3)) }, "add r1, r2, r3"},
	}
	for _, c := range cases {
		b := NewBuilder("t")
		c.emit(b)
		if got := b.instrs[0].String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValidSize(t *testing.T) {
	f := func(n uint8) bool {
		want := n == 1 || n == 2 || n == 4 || n == 8
		return ValidSize(n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMacroExpansion(t *testing.T) {
	b := NewBuilder("t")
	b.XorShift(R(1), R(2), R(3))
	if len(b.instrs) != 7 {
		t.Errorf("XorShift expands to %d instructions, want 7", len(b.instrs))
	}
	b2 := NewBuilder("t")
	b2.HashMix(R(1), R(2), 10)
	if len(b2.instrs) != 2 {
		t.Errorf("HashMix expands to %d instructions, want 2", len(b2.instrs))
	}
	b3 := NewBuilder("t")
	b3.BusyLoop(R(1), 5, "x")
	b3.Halt()
	if _, err := b3.Assemble(); err != nil {
		t.Errorf("BusyLoop must assemble: %v", err)
	}
}

func TestFetchAddMacro(t *testing.T) {
	b := NewBuilder("t")
	b.FetchAdd(R(4), 0x80, -3)
	b.Halt()
	p := b.MustAssemble()
	if len(p.Instrs) != 4 {
		t.Fatalf("FetchAdd expands to %d instructions, want 3 (+halt)", len(p.Instrs)-1)
	}
	if p.Instrs[0].Op != Ld || p.Instrs[1].Op != Addi || p.Instrs[2].Op != St {
		t.Errorf("FetchAdd shape = %v %v %v, want ld/addi/st", p.Instrs[0].Op, p.Instrs[1].Op, p.Instrs[2].Op)
	}
	if p.Instrs[1].Imm != -3 || p.Instrs[0].Imm != 0x80 || p.Instrs[2].Imm != 0x80 {
		t.Error("FetchAdd must target the absolute address with the given delta")
	}
}

// TestBusyLoopHead: Assemble marks exactly the addi of each addi/bgt
// delay loop on a real counter that branches back to that addi, and
// Validate rejects a mark the code no longer matches.
func TestBusyLoopHead(t *testing.T) {
	for _, c := range []struct {
		name string
		emit func(b *Builder)
		want bool
	}{
		{"BusyLoop", func(b *Builder) { b.BusyLoop(R(3), 9, "L") }, true},
		{"zero counter", func(b *Builder) { b.BusyLoop(Zero, 9, "L") }, false},
		{"step -2", func(b *Builder) { b.Label("L"); b.Addi(R(3), R(3), -2); b.Bgt(R(3), Zero, "L") }, false},
		{"other register", func(b *Builder) { b.Label("L"); b.Addi(R(3), R(4), -1); b.Bgt(R(3), Zero, "L") }, false},
		{"compare to register", func(b *Builder) { b.Label("L"); b.Addi(R(3), R(3), -1); b.Bgt(R(3), R(4), "L") }, false},
		{"bge", func(b *Builder) { b.Label("L"); b.Addi(R(3), R(3), -1); b.Bge(R(3), Zero, "L") }, false},
		{"loop body", func(b *Builder) { b.Label("L"); b.Nop(); b.Addi(R(3), R(3), -1); b.Bgt(R(3), Zero, "L") }, false},
	} {
		b := NewBuilder(c.name)
		c.emit(b)
		b.Halt()
		p := b.MustAssemble()
		var heads []int
		for pc := range p.Instrs {
			if p.Instrs[pc].BusyLoopHead() {
				heads = append(heads, pc)
			}
		}
		if got := len(heads) == 1 && p.Instrs[heads[0]].Op == Addi; got != c.want || len(heads) > 1 {
			t.Errorf("%s: busy-loop heads at %v, want one addi: %v", c.name, heads, c.want)
		}
	}

	b := NewBuilder("stale")
	b.BusyLoop(R(3), 9, "L")
	b.Halt()
	p := b.MustAssemble()
	p.Instrs[2].Target = 0 // the bgt now branches to the li
	if err := p.Validate(); err == nil {
		t.Error("a busy-loop mark the code no longer matches must be rejected")
	}
}

// TestProgramValidate covers the generator hook: structurally bad
// programs (built outside the Builder) are rejected with errors instead
// of panicking mid-simulation.
func TestProgramValidate(t *testing.T) {
	good := func() *Program {
		b := NewBuilder("ok")
		b.Li(R(1), 7)
		b.Halt()
		return b.MustAssemble()
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := []struct {
		name string
		prog *Program
	}{
		{"empty", &Program{Name: "e"}},
		{"unknown op", &Program{Name: "op", Instrs: []Instr{{Op: numOps}}}},
		{"bad register", &Program{Name: "reg", Instrs: []Instr{{Op: Mov, Rd: Reg(40)}}}},
		{"bad size", &Program{Name: "sz", Instrs: []Instr{{Op: Ld, Size: 3}}}},
		{"target out of range", &Program{Name: "tgt", Instrs: []Instr{{Op: Jmp, Target: 9}}}},
		{"negative target", &Program{Name: "neg", Instrs: []Instr{{Op: Beq, Target: -1}}}},
	}
	for _, c := range cases {
		if err := c.prog.Validate(); err == nil {
			t.Errorf("%s: must be rejected", c.name)
		}
	}
}
