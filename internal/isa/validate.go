package isa

import "fmt"

// Validate structurally checks a program: every opcode is known, register
// indices are in range, memory access sizes are legal and branch/jump
// targets resolve to instruction indices inside the program, and every
// addi that Assemble marked as a BusyLoopHead still heads that idiom (a
// program edited after assembly must not carry a stale mark). The builder
// can only produce valid programs; Validate exists for programs built by
// other front ends — notably the fuzz generator — so that a malformed
// program surfaces as an error at machine construction instead of a panic
// mid-simulation.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := in.validate(len(p.Instrs)); err != nil {
			return fmt.Errorf("isa: program %q: instruction %d (%s): %w", p.Name, i, in, err)
		}
		if in.loopHead && !isBusyLoopHead(p.Instrs, i) {
			return fmt.Errorf("isa: program %q: instruction %d (%s): busy-loop mark no longer matches the code", p.Name, i, in)
		}
	}
	return nil
}

func (in *Instr) validate(progLen int) error {
	if in.Op >= numOps {
		return fmt.Errorf("unknown opcode %d", uint8(in.Op))
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return fmt.Errorf("register out of range")
	}
	switch {
	case in.Op == Ld || in.Op == St:
		if !ValidSize(in.Size) {
			return fmt.Errorf("invalid access size %d", in.Size)
		}
	case in.Op == Jmp || in.Op.IsBranch():
		if in.label != "" {
			return fmt.Errorf("unresolved label %q", in.label)
		}
		if in.Target < 0 || in.Target >= progLen {
			return fmt.Errorf("target %d out of range [0,%d)", in.Target, progLen)
		}
	}
	return nil
}
