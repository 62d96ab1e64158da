package isa

import "fmt"

// Builder incrementally constructs a Program. Branch targets are symbolic
// labels resolved by Assemble. The zero value is ready to use.
//
// Builder methods panic on structurally invalid input (bad register, bad
// size); this surfaces workload construction bugs at build time rather than
// mid-simulation.
type Builder struct {
	name   string
	instrs []Instr
	labels map[string]int
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// Label defines a label at the current position. Defining the same label
// twice panics.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.instrs)
}

// Pos returns the index the next emitted instruction will occupy.
func (b *Builder) Pos() int { return len(b.instrs) }

func (b *Builder) emit(in Instr) {
	b.instrs = append(b.instrs, in)
}

func checkSize(size uint8) {
	if !ValidSize(size) {
		panic(fmt.Sprintf("isa: invalid access size %d", size))
	}
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(Instr{Op: Nop}) }

// Li emits rd = imm.
func (b *Builder) Li(rd Reg, imm int64) { b.emit(Instr{Op: Li, Rd: rd, Imm: imm}) }

// Mov emits rd = rs.
func (b *Builder) Mov(rd, rs Reg) { b.emit(Instr{Op: Mov, Rd: rd, Rs1: rs}) }

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Add, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: Addi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Sub, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Rsubi emits rd = imm - rs1.
func (b *Builder) Rsubi(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: Rsubi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Mul, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Muli emits rd = rs1 * imm.
func (b *Builder) Muli(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: Muli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Div emits rd = rs1 / rs2 (0 when rs2 is 0).
func (b *Builder) Div(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Div, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Rem emits rd = rs1 % rs2 (0 when rs2 is 0).
func (b *Builder) Rem(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Rem, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 Reg) { b.emit(Instr{Op: And, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: Andi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Or, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Xor, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Shli emits rd = rs1 << imm.
func (b *Builder) Shli(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: Shli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shri emits rd = rs1 >> imm (logical).
func (b *Builder) Shri(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: Shri, Rd: rd, Rs1: rs1, Imm: imm})
}

// AddF emits rd = rs1 + rs2 modeling a floating-point add (untrackable).
func (b *Builder) AddF(rd, rs1, rs2 Reg) { b.emit(Instr{Op: AddF, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// MulF emits rd = rs1 * rs2 modeling a floating-point multiply (untrackable).
func (b *Builder) MulF(rd, rs1, rs2 Reg) { b.emit(Instr{Op: MulF, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Ld emits rd = mem[base+off] with the given size in bytes.
func (b *Builder) Ld(rd, base Reg, off int64, size uint8) {
	checkSize(size)
	b.emit(Instr{Op: Ld, Rd: rd, Rs1: base, Imm: off, Size: size})
}

// St emits mem[base+off] = rs with the given size in bytes.
func (b *Builder) St(rs, base Reg, off int64, size uint8) {
	checkSize(size)
	b.emit(Instr{Op: St, Rs1: base, Rs2: rs, Imm: off, Size: size})
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) { b.emit(Instr{Op: Jmp, label: label}) }

// Beq emits: if rs1 == rs2 goto label.
func (b *Builder) Beq(rs1, rs2 Reg, label string) {
	b.emit(Instr{Op: Beq, Rs1: rs1, Rs2: rs2, label: label})
}

// Bne emits: if rs1 != rs2 goto label.
func (b *Builder) Bne(rs1, rs2 Reg, label string) {
	b.emit(Instr{Op: Bne, Rs1: rs1, Rs2: rs2, label: label})
}

// Blt emits: if rs1 < rs2 (signed) goto label.
func (b *Builder) Blt(rs1, rs2 Reg, label string) {
	b.emit(Instr{Op: Blt, Rs1: rs1, Rs2: rs2, label: label})
}

// Bge emits: if rs1 >= rs2 (signed) goto label.
func (b *Builder) Bge(rs1, rs2 Reg, label string) {
	b.emit(Instr{Op: Bge, Rs1: rs1, Rs2: rs2, label: label})
}

// Ble emits: if rs1 <= rs2 (signed) goto label.
func (b *Builder) Ble(rs1, rs2 Reg, label string) {
	b.emit(Instr{Op: Ble, Rs1: rs1, Rs2: rs2, label: label})
}

// Bgt emits: if rs1 > rs2 (signed) goto label.
func (b *Builder) Bgt(rs1, rs2 Reg, label string) {
	b.emit(Instr{Op: Bgt, Rs1: rs1, Rs2: rs2, label: label})
}

// TxBegin emits a transaction begin.
func (b *Builder) TxBegin() { b.emit(Instr{Op: TxBegin}) }

// TxCommit emits a transaction commit.
func (b *Builder) TxCommit() { b.emit(Instr{Op: TxCommit}) }

// Barrier emits a global barrier.
func (b *Builder) Barrier() { b.emit(Instr{Op: Barrier}) }

// Halt emits a halt.
func (b *Builder) Halt() { b.emit(Instr{Op: Halt}) }

// Assemble resolves labels and returns the finished Program. It returns an
// error for undefined labels or an empty program.
func (b *Builder) Assemble() (*Program, error) {
	if len(b.instrs) == 0 {
		return nil, fmt.Errorf("isa: program %q is empty", b.name)
	}
	out := make([]Instr, len(b.instrs))
	copy(out, b.instrs)
	for i := range out {
		in := &out[i]
		if in.Op != Jmp && !in.Op.IsBranch() {
			continue
		}
		tgt, ok := b.labels[in.label]
		if !ok {
			return nil, fmt.Errorf("isa: program %q: undefined label %q at instruction %d", b.name, in.label, i)
		}
		in.Target = tgt
		in.label = ""
	}
	for i := range out {
		out[i].loopHead = isBusyLoopHead(out, i)
	}
	return &Program{Name: b.name, Instrs: out}, nil
}

// MustAssemble is Assemble that panics on error, for use in workload
// builders where a failure is a programming bug.
func (b *Builder) MustAssemble() *Program {
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}
