package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// exec runs one instruction on core c (1 IPC; multi-cycle operations stall
// the core for their remaining latency). It reports whether the
// instruction completed in a way that can open a run of local
// instructions (see runLocal): an ALU op, branch, jmp or nop, a load or
// store that was neither NACKed nor aborted, or a TXBEGIN. Lockstep
// ignores the result.
func (m *Machine) exec(c *Core) bool {
	if uint(c.PC) >= uint(len(c.instrs)) {
		panic(fmt.Sprintf("sim: core %d PC %d out of range in %q", c.ID, c.PC, c.Prog.Name))
	}
	in := &c.instrs[c.PC]
	c.Stats.Instrs++

	switch in.Op {
	case isa.Nop:
		c.addCycle(CatBusy)
		c.PC++
		return true

	case isa.Li, isa.Mov, isa.Add, isa.Addi, isa.Sub, isa.Rsubi, isa.Mul,
		isa.Muli, isa.Div, isa.Rem, isa.And, isa.Andi, isa.Or, isa.Xor,
		isa.Shli, isa.Shri, isa.AddF, isa.MulF:
		c.addCycle(CatBusy)
		if !m.execALU(c, in) {
			return false // aborted on constraint overflow; PC reset by abort
		}
		c.PC++
		return true

	case isa.Ld:
		addr := c.Regs[in.Rs1] + in.Imm
		if !m.pinAddressSym(c, in.Rs1) {
			return false
		}
		val, sym, lat, st := m.load(c, addr, in.Size)
		switch st {
		case accessNack:
			m.nacked(c)
		case accessAbort:
			// PC and stall already set by abort.
		default:
			if c.nackWaitSince != 0 {
				m.endNackWait(c, true)
			}
			c.addCycle(CatBusy)
			c.setStall(m.Now+lat-1, CatBusy)
			c.setReg(in.Rd, val)
			m.setRegSym(c, in.Rd, sym)
			c.PC++
			return true
		}

	case isa.St:
		addr := c.Regs[in.Rs1] + in.Imm
		if !m.pinAddressSym(c, in.Rs1) {
			return false
		}
		var dataSym core.SymVal
		if m.P.Mode == RetCon && c.Tx.Active {
			dataSym = c.Ret.Regs[in.Rs2]
		}
		lat, st := m.store(c, addr, in.Size, c.Regs[in.Rs2], dataSym)
		switch st {
		case accessNack:
			m.nacked(c)
		case accessAbort:
		default:
			if c.nackWaitSince != 0 {
				m.endNackWait(c, true)
			}
			c.addCycle(CatBusy)
			c.setStall(m.Now+lat-1, CatBusy)
			c.PC++
			return true
		}

	case isa.Jmp:
		c.addCycle(CatBusy)
		c.PC = in.Target
		return true

	case isa.Beq, isa.Bne, isa.Blt, isa.Bge, isa.Ble, isa.Bgt:
		c.addCycle(CatBusy)
		return m.execBranch(c, in) // false: aborted on constraint overflow

	case isa.TxBegin:
		c.addCycle(CatBusy)
		if c.Tx.Active {
			panic(fmt.Sprintf("sim: core %d nested TXBEGIN at pc %d", c.ID, c.PC))
		}
		if c.pendingTS == 0 {
			c.pendingTS = m.nextTS()
		}
		c.Tx.Begin(c.PC, c.pendingTS, &c.Regs, m.Now)
		c.Tx.AccumBusy = 1 // this TXBEGIN cycle belongs to the attempt
		if m.rec != nil {
			m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindBegin, Tx: c.Tx.TS, A: int64(c.PC)})
		}
		c.PC++
		return true

	case isa.TxCommit:
		if !c.Tx.Active {
			panic(fmt.Sprintf("sim: core %d TXCOMMIT outside transaction at pc %d", c.ID, c.PC))
		}
		m.commit(c)

	case isa.Barrier:
		c.addCycle(CatBarrier)
		c.barrierWait = true
		m.barrierArrived++
		m.syncDirty = true
		c.PC++

	case isa.Halt:
		c.halted = true
		m.haltedCores++
		m.syncDirty = true // a halt shrinks the live count the barrier waits on

	default:
		panic(fmt.Sprintf("sim: core %d unknown opcode %v at pc %d", c.ID, in.Op, c.PC))
	}
	return false
}

// nacked stalls core c, whose load or store was NACKed this cycle, until
// its retry NackRetry cycles later.
func (m *Machine) nacked(c *Core) {
	if c.nackWaitSince == 0 {
		c.nackWaitSince = m.Now
		c.waitHolder = m.nackHolder
	}
	c.nackAt = m.Now
	c.addCycle(CatConflict)
	c.setStall(m.Now+m.P.NackRetry-1, CatConflict)
}

// endNackWait ends core c's NACK wait at the current cycle: its access
// completed, which observes the wait into the NackWait histogram, or its
// attempt aborts. A recorder logs the whole wait as one KindNack event
// here, so both schedulers emit it at the same cycle whether the event
// loop parked c or not.
func (m *Machine) endNackWait(c *Core, completed bool) {
	if completed {
		m.metrics.NackWait.Observe(m.Now - c.nackWaitSince)
	}
	if m.rec != nil {
		m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindNack,
			Block: c.nackBlock, A: int64(c.waitHolder), B: c.nackWaitSince, C: c.waitNacks})
	}
	c.nackWaitSince = 0
	c.waitNacks = 0
}

// setReg writes a register, discarding writes to the zero register.
func (c *Core) setReg(r isa.Reg, v int64) {
	if r != isa.Zero {
		c.Regs[r] = v
	}
}

// setRegSym records a register's symbolic value in RETCON mode.
func (m *Machine) setRegSym(c *Core, r isa.Reg, sym core.SymVal) {
	if m.P.Mode == RetCon && c.Tx.Active && r != isa.Zero {
		c.Ret.SetReg(r, sym)
	}
}

// pinAddressSym handles a symbolic register used in address computation:
// RETCON cannot track addresses symbolically, so the root is pinned to its
// initial value (§4.2 equality-constraint rule). Returns false if the
// transaction aborted on constraint-buffer overflow. The mode and validity
// screens stay in this small inlinable wrapper so eager-mode loads and
// stores pay a pair of branches, not a call.
func (m *Machine) pinAddressSym(c *Core, base isa.Reg) bool {
	if m.P.Mode != RetCon || !c.Tx.Active || !c.Ret.Regs[base].Valid {
		return true
	}
	return m.pinAddressSymSlow(c, base)
}

func (m *Machine) pinAddressSymSlow(c *Core, base isa.Reg) bool {
	s := c.Ret.Regs[base]
	if !c.Ret.PinSym(s) {
		m.structOverflowAbort(c, s.Root)
		return false
	}
	return true
}

// execALU computes the concrete result and propagates symbolic values per
// §4.2: at most one symbolic input; additions and subtractions propagate,
// everything else pins its symbolic inputs with equality constraints.
// Returns false if the transaction aborted on constraint overflow.
func (m *Machine) execALU(c *Core, in *isa.Instr) bool {
	a := c.Regs[in.Rs1]
	b := c.Regs[in.Rs2]
	var v int64
	switch in.Op {
	case isa.Li:
		v = in.Imm
	case isa.Mov:
		v = a
	case isa.Add:
		v = a + b
	case isa.Addi:
		v = a + in.Imm
	case isa.Sub:
		v = a - b
	case isa.Rsubi:
		v = in.Imm - a
	case isa.Mul:
		v = a * b
	case isa.Muli:
		v = a * in.Imm
	case isa.Div:
		if b != 0 {
			v = a / b
		}
	case isa.Rem:
		if b != 0 {
			v = a % b
		}
	case isa.And:
		v = a & b
	case isa.Andi:
		v = a & in.Imm
	case isa.Or:
		v = a | b
	case isa.Xor:
		v = a ^ b
	case isa.Shli:
		v = a << uint(in.Imm&63)
	case isa.Shri:
		v = int64(uint64(a) >> uint(in.Imm&63))
	case isa.AddF:
		v = a + b
	case isa.MulF:
		v = a * b
	}

	if m.P.Mode == RetCon && c.Tx.Active {
		if !m.propagateSym(c, in, b) {
			return false
		}
	}
	c.setReg(in.Rd, v)
	return true
}

// propagateSym updates the symbolic register file for an ALU instruction.
func (m *Machine) propagateSym(c *Core, in *isa.Instr, concreteRs2 int64) bool {
	if !c.Ret.Regs[in.Rs1].Valid && !c.Ret.Regs[in.Rs2].Valid {
		// Concrete inputs, concrete output — the overwhelmingly common
		// case, handled without the per-op switch.
		if in.Rd != isa.Zero {
			c.Ret.ClearReg(in.Rd)
		}
		return true
	}
	s1 := c.Ret.Regs[in.Rs1]
	s2 := c.Ret.Regs[in.Rs2]
	var out core.SymVal

	switch in.Op {
	case isa.Li:
		// constant: no symbolic value
	case isa.Mov:
		out = s1
	case isa.Addi:
		if s1.Valid {
			out = s1.AddConst(in.Imm)
		}
	case isa.Rsubi:
		if s1.Valid {
			out = s1.Negate().AddConst(in.Imm)
		}
	case isa.Add:
		switch {
		case s1.Valid && s2.Valid:
			// Two symbolic inputs: pin one to preserve the single-input
			// invariant (§4.2), then fold its (now fixed) concrete value.
			if !c.Ret.PinSym(s2) {
				m.structOverflowAbort(c, s2.Root)
				return false
			}
			out = s1.AddConst(concreteRs2)
		case s1.Valid:
			out = s1.AddConst(concreteRs2)
		case s2.Valid:
			out = s2.AddConst(c.Regs[in.Rs1])
		}
	case isa.Sub:
		switch {
		case s1.Valid && s2.Valid:
			if !c.Ret.PinSym(s2) {
				m.structOverflowAbort(c, s2.Root)
				return false
			}
			out = s1.AddConst(-concreteRs2)
		case s1.Valid:
			out = s1.AddConst(-concreteRs2)
		case s2.Valid:
			out = s2.Negate().AddConst(c.Regs[in.Rs1])
		}
	default:
		// Untrackable computation (mul/div/logic/shift/FP): pin all
		// symbolic inputs; the output is concrete.
		if s1.Valid && !c.Ret.PinSym(s1) {
			m.structOverflowAbort(c, s1.Root)
			return false
		}
		if in.Op != isa.Muli && in.Op != isa.Andi && in.Op != isa.Shli && in.Op != isa.Shri {
			if s2.Valid && !c.Ret.PinSym(s2) {
				m.structOverflowAbort(c, s2.Root)
				return false
			}
		}
	}
	if in.Rd != isa.Zero {
		c.Ret.SetReg(in.Rd, out)
	}
	return true
}

// execBranch resolves a conditional branch on concrete values and, in
// RETCON mode, records the control-flow constraint implied by the outcome
// (§4.2 "symbolic control-flow constraints"). Returns false if the
// transaction aborted on constraint overflow.
func (m *Machine) execBranch(c *Core, in *isa.Instr) bool {
	a := c.Regs[in.Rs1]
	b := c.Regs[in.Rs2]
	var taken bool
	switch in.Op {
	case isa.Beq:
		taken = a == b
	case isa.Bne:
		taken = a != b
	case isa.Blt:
		taken = a < b
	case isa.Bge:
		taken = a >= b
	case isa.Ble:
		taken = a <= b
	case isa.Bgt:
		taken = a > b
	}

	if m.P.Mode == RetCon && c.Tx.Active {
		s1 := c.Ret.Regs[in.Rs1]
		s2 := c.Ret.Regs[in.Rs2]
		op := in.Op
		sym, rhs := s1, b
		if s1.Valid && s2.Valid {
			// Pin the right operand; constrain through the left.
			if !c.Ret.PinSym(s2) {
				m.structOverflowAbort(c, s2.Root)
				return false
			}
			s2 = core.SymVal{}
		}
		if !s1.Valid && s2.Valid {
			sym, rhs = s2, a
			op = core.MirrorBranch(op)
		}
		if sym.Valid {
			iv, ok := core.BranchConstraint(sym, op, rhs, taken, c.Ret.RootVal(sym.Root))
			if !ok {
				// No sound constraint exists (the observed outcome is
				// inconsistent with the tracked root): fall back to an
				// abort rather than commit under a mis-bounded
				// constraint, and train the predictor down so the retry
				// does not re-track the same root into the same dead end.
				m.trainDown(c, sym.Root)
				if m.rec != nil {
					m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindReject,
						Tx: c.Tx.TS, Block: sym.Root, A: int64(op)})
				}
				m.abort(c, -1, telemetry.CauseUnfoldableConstraint)
				return false
			}
			if !c.Ret.Constrain(sym.Root, iv) {
				m.structOverflowAbort(c, sym.Root)
				return false
			}
		}
	}

	if taken {
		c.PC = in.Target
	} else {
		c.PC++
	}
	return true
}
