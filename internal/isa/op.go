// Package isa defines the small RISC-style instruction set executed by the
// simulated cores, plus a builder/assembler for constructing programs.
//
// The ISA deliberately mirrors the subset of computation RETCON reasons
// about (Blundell et al., §4): loads and stores of 1/2/4/8 bytes, simple
// ALU operations, compare-and-branch, and the transactional control
// instructions TXBEGIN/TXCOMMIT. There are no condition codes: branches
// compare registers directly, so symbolic constraints are formed at the
// branch itself (the paper's condition-code extension collapses into the
// branch rule).
package isa

import "fmt"

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. AddF and MulF perform the same integer arithmetic as Add/Mul but
// are flagged "complex": they model floating-point computation, which
// RETCON does not track symbolically (it sets equality constraints instead).
const (
	Nop Op = iota

	// ALU, register and immediate forms.
	Li    // rd = imm
	Mov   // rd = rs1
	Add   // rd = rs1 + rs2
	Addi  // rd = rs1 + imm
	Sub   // rd = rs1 - rs2
	Rsubi // rd = imm - rs1 (reverse subtract: negates a symbolic input)
	Mul   // rd = rs1 * rs2 (not symbolically trackable)
	Muli  // rd = rs1 * imm (not symbolically trackable)
	Div   // rd = rs1 / rs2 (not trackable; div-by-zero yields 0)
	Rem   // rd = rs1 % rs2 (not trackable; rem-by-zero yields 0)
	And   // rd = rs1 & rs2 (not trackable)
	Andi  // rd = rs1 & imm (not trackable)
	Or    // rd = rs1 | rs2 (not trackable)
	Xor   // rd = rs1 ^ rs2 (not trackable)
	Shli  // rd = rs1 << imm (not trackable)
	Shri  // rd = rs1 >> imm, logical (not trackable)
	AddF  // rd = rs1 + rs2, models FP add (not trackable)
	MulF  // rd = rs1 * rs2, models FP multiply (not trackable)

	// Memory. Effective address is rs1 + Imm. Size selects 1/2/4/8 bytes;
	// sub-word loads zero-extend.
	Ld // rd = mem[rs1+imm]
	St // mem[rs1+imm] = rs2

	// Control flow. Branches compare rs1 against rs2 (signed) and jump to
	// Target when the condition holds.
	Jmp
	Beq
	Bne
	Blt
	Bge
	Ble
	Bgt

	// Synchronization and machine control.
	TxBegin
	TxCommit
	Barrier
	Halt

	numOps
)

var opNames = [...]string{
	Nop: "nop", Li: "li", Mov: "mov", Add: "add", Addi: "addi", Sub: "sub",
	Rsubi: "rsubi", Mul: "mul", Muli: "muli", Div: "div", Rem: "rem",
	And: "and", Andi: "andi", Or: "or", Xor: "xor", Shli: "shli", Shri: "shri",
	AddF: "addf", MulF: "mulf", Ld: "ld", St: "st", Jmp: "jmp", Beq: "beq",
	Bne: "bne", Blt: "blt", Bge: "bge", Ble: "ble", Bgt: "bgt",
	TxBegin: "txbegin", TxCommit: "txcommit", Barrier: "barrier", Halt: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the opcode is a conditional branch.
func (o Op) IsBranch() bool { return o >= Beq && o <= Bgt }
