package fuzz

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Register allocation for compiled programs. Loop counters live above the
// scratch range so statement bodies can never clobber them.
const (
	rLast  = isa.Reg(10) // last shared-loaded (possibly symbolic) value
	rCmp   = isa.Reg(11) // branch compare scratch
	rRhs   = isa.Reg(12) // branch right-hand side
	rBusy  = isa.Reg(13) // busy-loop counter
	rKey   = isa.Reg(14) // probe key
	rSlots = isa.Reg(15) // probe table size
	rSlot  = isa.Reg(16) // probe slot index
	rAddr  = isa.Reg(17) // probe slot address
	rVal   = isa.Reg(18) // probe loaded slot / lane & priv store data
	rLoop0 = isa.Reg(20) // loop counter, depth 0 (+1 per nesting level)
)

// layout is the compiled memory map of a Prog.
type layout struct {
	sharedBase int64   // Words[i] lives at sharedBase + 8i
	tableBase  int64   // TableSlots words, block-aligned
	privBase   []int64 // per-core private scratch, one block each
}

func (l *layout) wordAddr(i int) int64 { return l.sharedBase + int64(i)*mem.WordSize }

// wordBlocks is the number of cache blocks n block-aligned words span.
func wordBlocks(n int) int64 { return int64(n+mem.WordsPerBlock-1) / mem.WordsPerBlock }

// Compile lowers the program to an initial memory image and one assembled
// ISA program per core. It validates first, so a malformed Prog (e.g. a
// hostile corpus file) fails here rather than panicking mid-simulation.
//
// The layout is the reserved block 0, the shared words, the table and one
// private block per core, in bump-allocation order. Like every image, the
// image holds exactly its layout, so an access outside it fails.
func Compile(p *Prog) (*mem.Image, []*isa.Program, *layout, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return compile(p)
}

// compile is Compile for a program its caller has already validated
// (Check does, computing the expectations it needs anyway).
func compile(p *Prog) (*mem.Image, []*isa.Program, *layout, error) {
	img := mem.NewImage()
	lay := &layout{sharedBase: img.AllocBlocks(int64(len(p.Words)) * mem.WordSize)}
	for i, w := range p.Words {
		img.Write64(lay.wordAddr(i), w.Init)
	}
	if p.TableSlots > 0 {
		lay.tableBase = img.AllocBlocks(int64(p.TableSlots) * mem.WordSize)
	}
	for c := 0; c < p.Cores; c++ {
		lay.privBase = append(lay.privBase, img.AllocBlocks(privWords*mem.WordSize))
	}

	progs := make([]*isa.Program, p.Cores)
	for c := 0; c < p.Cores; c++ {
		cc := &compiler{b: isa.NewBuilder(fmt.Sprintf("fuzz-c%d", c)), p: p, lay: lay, core: c}
		cc.emitAll(p.Threads[c], 0)
		cc.b.Barrier()
		cc.b.Halt()
		prog, err := cc.b.Assemble()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fuzz: core %d: %w", c, err)
		}
		progs[c] = prog
	}
	return img, progs, lay, nil
}

type compiler struct {
	b    *isa.Builder
	p    *Prog
	lay  *layout
	core int
	n    int // label counter
}

func (c *compiler) label(pfx string) string {
	c.n++
	return fmt.Sprintf("%s_%d", pfx, c.n)
}

func (c *compiler) emitAll(stmts []Stmt, depth int) {
	for i := range stmts {
		c.emit(&stmts[i], depth)
	}
}

func (c *compiler) emit(s *Stmt, depth int) {
	b := c.b
	switch s.Kind {
	case KTx:
		b.TxBegin()
		c.emitAll(s.Body, depth)
		b.TxCommit()
	case KLoop:
		ctr := rLoop0 + isa.Reg(depth)
		top := c.label("loop")
		b.Li(ctr, s.N)
		b.Label(top)
		c.emitAll(s.Body, depth+1)
		b.Addi(ctr, ctr, -1)
		b.Bgt(ctr, isa.Zero, top)
	case KBusy:
		b.BusyLoop(rBusy, s.N, c.label("busy"))
	case KBarrier:
		b.Barrier()
	case KAdd:
		b.FetchAdd(rLast, c.lay.wordAddr(s.Tgt), s.N)
	case KBranch:
		if s.Tgt >= 0 {
			b.Ld(rLast, isa.Zero, c.lay.wordAddr(s.Tgt), 8)
		}
		b.Addi(rCmp, rLast, s.Pre)
		b.Li(rRhs, s.Rhs)
		taken, end := c.label("taken"), c.label("end")
		switch s.Cmp {
		case "beq":
			b.Beq(rCmp, rRhs, taken)
		case "bne":
			b.Bne(rCmp, rRhs, taken)
		case "blt":
			b.Blt(rCmp, rRhs, taken)
		case "bge":
			b.Bge(rCmp, rRhs, taken)
		case "ble":
			b.Ble(rCmp, rRhs, taken)
		case "bgt":
			b.Bgt(rCmp, rRhs, taken)
		}
		b.Jmp(end)
		b.Label(taken)
		c.emitAll(s.Body, depth)
		b.Label(end)
	case KProbe:
		// Linear probe for an empty slot, wrapping at the table end. Keys
		// are distinct and the table is at most half full, so the loop
		// terminates under every interleaving.
		loop, store := c.label("probe"), c.label("claim")
		b.Li(rKey, s.N)
		b.Li(rSlots, int64(c.p.TableSlots))
		b.Rem(rSlot, rKey, rSlots)
		b.Label(loop)
		b.Shli(rAddr, rSlot, 3)
		b.Addi(rAddr, rAddr, c.lay.tableBase)
		b.Ld(rVal, rAddr, 0, 8)
		b.Beq(rVal, isa.Zero, store)
		b.Addi(rSlot, rSlot, 1)
		b.Blt(rSlot, rSlots, loop)
		b.Li(rSlot, 0)
		b.Jmp(loop)
		b.Label(store)
		b.St(rKey, rAddr, 0, 8)
	case KLane:
		b.Li(rVal, s.N)
		off := int64(c.core) * int64(s.Size)
		b.St(rVal, isa.Zero, c.lay.wordAddr(s.Tgt)+off, s.Size)
	case KSave:
		b.St(rLast, isa.Zero, c.lay.privBase[c.core]+int64(s.Tgt)*mem.WordSize, 8)
	case KPriv:
		b.Li(rVal, s.N)
		b.St(rVal, isa.Zero, c.lay.privBase[c.core]+int64(s.Tgt)*mem.WordSize, s.Size)
	default:
		panic(fmt.Sprintf("fuzz: unvalidated stmt kind %q", s.Kind))
	}
}
