package isa

import "fmt"

// NumRegs is the number of general-purpose registers. Register 0 is
// hardwired to zero; writes to it are discarded.
const NumRegs = 32

// Reg names a general-purpose register.
type Reg uint8

// R returns the i'th register and panics if i is out of range. It exists so
// workload builders can write R(7) instead of casting.
func R(i int) Reg {
	if i < 0 || i >= NumRegs {
		panic(fmt.Sprintf("isa: register %d out of range", i))
	}
	return Reg(i)
}

// Zero is the hardwired zero register.
const Zero Reg = 0

// Instr is a single decoded instruction. Programs are slices of Instr; the
// program counter indexes the slice directly (Harvard-style instruction
// memory, which keeps the timing model focused on data accesses, the only
// accesses that matter to the HTM).
type Instr struct {
	Op   Op
	Rd   Reg   // destination (Ld, ALU)
	Rs1  Reg   // source 1 / base address
	Rs2  Reg   // source 2 / store data
	Imm  int64 // immediate / address offset
	Size uint8 // access size in bytes for Ld/St: 1, 2, 4 or 8
	// loopHead is set by Assemble on the addi of a counted delay loop (see
	// BusyLoopHead). It sits in Size's padding, so Instr stays 48 bytes.
	loopHead bool
	Target   int // resolved instruction index for branches and jumps

	label string // unresolved branch target, cleared by Assemble
}

// BusyLoopHead reports whether the instruction is the addi of a counted
// delay loop, the shape BusyLoop emits:
//
//	L: addi r, r, -1
//	   bgt  r, zero, L
//
// with r not the zero register. From the addi with r = v, the loop runs
// exactly 2*max(v,1) instructions, leaves r = min(v,1)-1 and falls through
// past the bgt, touching nothing else. Assemble recognises the idiom once
// per program, so a simulator can run the whole loop as one timed step
// without matching it on every execution.
func (in *Instr) BusyLoopHead() bool { return in.loopHead }

// isBusyLoopHead matches the BusyLoopHead idiom at instrs[i].
func isBusyLoopHead(instrs []Instr, i int) bool {
	if i+1 >= len(instrs) {
		return false
	}
	a, br := &instrs[i], &instrs[i+1]
	return a.Op == Addi && a.Imm == -1 && a.Rd == a.Rs1 && a.Rd != Zero &&
		br.Op == Bgt && br.Rs1 == a.Rd && br.Rs2 == Zero && br.Target == i
}

// String renders the instruction in assembler-like syntax.
func (in Instr) String() string {
	switch in.Op {
	case Nop, Barrier, Halt, TxBegin, TxCommit:
		return in.Op.String()
	case Li:
		return fmt.Sprintf("li r%d, %d", in.Rd, in.Imm)
	case Mov:
		return fmt.Sprintf("mov r%d, r%d", in.Rd, in.Rs1)
	case Addi, Rsubi, Andi, Shli, Shri, Muli:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case Ld:
		return fmt.Sprintf("ld%d r%d, [r%d+%d]", in.Size, in.Rd, in.Rs1, in.Imm)
	case St:
		return fmt.Sprintf("st%d r%d, [r%d+%d]", in.Size, in.Rs2, in.Rs1, in.Imm)
	case Jmp:
		return fmt.Sprintf("jmp %d", in.Target)
	case Beq, Bne, Blt, Bge, Ble, Bgt:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Target)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Program is an assembled instruction sequence for one core.
type Program struct {
	Name   string
	Instrs []Instr
}

// Len returns the number of instructions in the program.
func (p *Program) Len() int { return len(p.Instrs) }

// ValidSize reports whether n is a legal memory access size.
func ValidSize(n uint8) bool { return n == 1 || n == 2 || n == 4 || n == 8 }
