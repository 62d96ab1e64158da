package fuzz

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// replayBudget bounds a single functional replay. Generated transactions
// are a few hundred dynamic instructions at most; hitting the budget
// means the replayed control flow livelocked, which is itself a
// divergence (the committed execution terminated).
const replayBudget = 1 << 20

// ReplayOracle returns a commit observer that functionally re-executes
// each committed transaction at its commit instant and verifies that the
// committed architectural state — registers, PC and every memory word the
// transaction or the replay touched — equals the replayed one. This is
// the paper's §4 correctness argument checked mechanically: symbolic
// repair must commit exactly the state a replayed execution would.
//
// The replay is an independent interpreter over internal/isa (its own
// ALU, branch and byte-merge semantics), so it doubles as a differential
// check of the simulator's execution core.
func ReplayOracle() sim.CommitObserver {
	return new(replayer).commit
}

// wordVal is one memory word and its value.
type wordVal struct{ word, val int64 }

// replayer holds the replay oracle's per-commit state. A generated
// transaction touches a handful of words, so both word sets are slices
// searched linearly, truncated and reused at every commit: no hashing,
// and no allocation once they have grown.
type replayer struct {
	// pre holds the pre-transaction value of every word the transaction
	// stored to, in the order the undo log is unwound (newest first).
	pre []wordVal
	// stores holds every word the replay stored to and its replayed
	// value, in the order of each word's first replayed store.
	stores []wordVal
	img    *mem.Image // the committing machine's image
	// observe is commit, wrapped to classify its failures as replay
	// divergences (replayErr). It is bound once, when the replayer is
	// built, so a run that installs it allocates nothing.
	observe sim.CommitObserver
}

func newReplayer() *replayer {
	r := &replayer{}
	r.observe = func(m *sim.Machine, c *sim.Core) error {
		if err := r.commit(m, c); err != nil {
			return &replayErr{inner: err}
		}
		return nil
	}
	return r
}

// replayers recycles replayers, with their grown word buffers, across
// Check calls, as eventLogs recycles event logs: commit truncates both
// buffers first, so reuse cannot change a verdict.
var replayers = sync.Pool{New: func() any { return newReplayer() }}

// find returns the index of word in buf, or -1.
func find(buf []wordVal, word int64) int {
	for i := range buf {
		if buf[i].word == word {
			return i
		}
	}
	return -1
}

// read returns word's value as the replay sees it: its own last store,
// else the word's pre-transaction value.
func (r *replayer) read(word int64) int64 {
	if i := find(r.stores, word); i >= 0 {
		return r.stores[i].val
	}
	if i := find(r.pre, word); i >= 0 {
		return r.pre[i].val
	}
	return r.img.Read64(word)
}

// commit replays core c's committing transaction and compares the result
// with the committed state. A mismatched word is reported in store order:
// the replay's stores first, then the words only the transaction stored.
func (r *replayer) commit(m *sim.Machine, c *sim.Core) error {
	r.img = m.Mem
	r.pre, r.stores = r.pre[:0], r.stores[:0]
	// Reconstruct the pre-transaction value of every word the transaction
	// stored to by unwinding the undo log (newest first) against the
	// current image. All other words are untouched by the transaction, and
	// conflict detection guarantees no remote writer changed a word the
	// transaction read non-symbolically, so the current image is exactly
	// what a replay starting now would observe.
	undo := c.Tx.Undo
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		w := mem.WordAddr(u.Addr)
		j := find(r.pre, w)
		if j < 0 {
			j = len(r.pre)
			r.pre = append(r.pre, wordVal{w, m.Mem.Read64(w)})
		}
		r.pre[j].val = mergeBytes(r.pre[j].val, u.Addr, u.Size, u.Old)
	}

	regs := c.Tx.RegCkpt
	prog := c.Prog.Instrs
	pc := c.Tx.BeginPC
	if pc < 0 || pc >= len(prog) || prog[pc].Op != isa.TxBegin {
		return fmt.Errorf("replay: core %d t=%d: BeginPC %d is not a TXBEGIN", c.ID, m.Now, pc)
	}
	pc++
	for steps := 0; ; steps++ {
		if steps >= replayBudget {
			return fmt.Errorf("replay: core %d t=%d: replayed execution did not reach TXCOMMIT within %d steps", c.ID, m.Now, replayBudget)
		}
		if pc < 0 || pc >= len(prog) {
			return fmt.Errorf("replay: core %d t=%d: PC %d out of range", c.ID, m.Now, pc)
		}
		in := &prog[pc]
		if in.Op == isa.TxCommit {
			pc++
			break
		}
		var err error
		pc, err = r.step(in, pc, &regs)
		if err != nil {
			return fmt.Errorf("replay: core %d t=%d pc=%d: %w", c.ID, m.Now, pc, err)
		}
	}

	// Compare committed state against the replayed state.
	if pc != c.PC {
		return fmt.Errorf("replay divergence: core %d t=%d: committed PC %d, replay ends at %d", c.ID, m.Now, c.PC, pc)
	}
	for i := 0; i < isa.NumRegs; i++ {
		if regs[i] != c.Regs[i] {
			return fmt.Errorf("replay divergence: core %d t=%d: r%d = %d committed, %d replayed", c.ID, m.Now, i, c.Regs[i], regs[i])
		}
	}
	for _, s := range r.stores {
		if got := m.Mem.Read64(s.word); got != s.val {
			return wordDivergence(m, c, s.word, got, s.val)
		}
	}
	for _, p := range r.pre {
		// The transaction stored here and the replay did not: the word
		// must read back as its pre-transaction value.
		if got := m.Mem.Read64(p.word); got != p.val && find(r.stores, p.word) < 0 {
			return wordDivergence(m, c, p.word, got, p.val)
		}
	}
	return nil
}

func wordDivergence(m *sim.Machine, c *sim.Core, word, got, want int64) error {
	return fmt.Errorf("replay divergence: core %d t=%d: word %#x = %d committed, %d replayed", c.ID, m.Now, word, got, want)
}

// step interprets one non-TXCOMMIT instruction, returning the next PC.
// Semantics mirror the simulator's execution core by specification, not
// by code sharing.
func (r *replayer) step(in *isa.Instr, pc int, regs *[isa.NumRegs]int64) (int, error) {
	set := func(r isa.Reg, v int64) {
		if r != isa.Zero {
			regs[r] = v
		}
	}
	a, b := regs[in.Rs1], regs[in.Rs2]
	switch in.Op {
	case isa.Nop:
	case isa.Li:
		set(in.Rd, in.Imm)
	case isa.Mov:
		set(in.Rd, a)
	case isa.Add:
		set(in.Rd, a+b)
	case isa.Addi:
		set(in.Rd, a+in.Imm)
	case isa.Sub:
		set(in.Rd, a-b)
	case isa.Rsubi:
		set(in.Rd, in.Imm-a)
	case isa.Mul:
		set(in.Rd, a*b)
	case isa.Muli:
		set(in.Rd, a*in.Imm)
	case isa.Div:
		var v int64
		if b != 0 {
			v = a / b
		}
		set(in.Rd, v)
	case isa.Rem:
		var v int64
		if b != 0 {
			v = a % b
		}
		set(in.Rd, v)
	case isa.And:
		set(in.Rd, a&b)
	case isa.Andi:
		set(in.Rd, a&in.Imm)
	case isa.Or:
		set(in.Rd, a|b)
	case isa.Xor:
		set(in.Rd, a^b)
	case isa.Shli:
		set(in.Rd, a<<uint(in.Imm&63))
	case isa.Shri:
		set(in.Rd, int64(uint64(a)>>uint(in.Imm&63)))
	case isa.AddF:
		set(in.Rd, a+b)
	case isa.MulF:
		set(in.Rd, a*b)
	case isa.Ld:
		addr := a + in.Imm
		set(in.Rd, extractBytes(r.read(mem.WordAddr(addr)), addr, in.Size))
	case isa.St:
		addr := a + in.Imm
		w := mem.WordAddr(addr)
		if i := find(r.stores, w); i >= 0 {
			r.stores[i].val = mergeBytes(r.stores[i].val, addr, in.Size, b)
		} else {
			r.stores = append(r.stores, wordVal{w, mergeBytes(r.read(w), addr, in.Size, b)})
		}
	case isa.Jmp:
		return in.Target, nil
	case isa.Beq, isa.Bne, isa.Blt, isa.Bge, isa.Ble, isa.Bgt:
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
		if taken {
			return in.Target, nil
		}
	default:
		// TXBEGIN (nested), BARRIER and HALT cannot occur inside a
		// committed transaction body.
		return pc, fmt.Errorf("op %v inside a transaction", in.Op)
	}
	return pc + 1, nil
}
