package isa

// Macro helpers: multi-instruction idioms used by most workload kernels.
// They expand inline (the ISA has no call instruction) and clobber only the
// registers passed to them.

// XorShift emits the xorshift64 step on the state register and leaves the
// new state in both state and rd. The state must be initialized nonzero.
//
//	s ^= s << 13; s ^= s >> 7; s ^= s << 17; rd = s
func (b *Builder) XorShift(rd, state, tmp Reg) {
	b.Shli(tmp, state, 13)
	b.Xor(state, state, tmp)
	b.Shri(tmp, state, 7)
	b.Xor(state, state, tmp)
	b.Shli(tmp, state, 17)
	b.Xor(state, state, tmp)
	b.Mov(rd, state)
}

// fibMul is the 64-bit golden-ratio multiplier used for multiplicative
// hashing (Fibonacci hashing).
const fibMul = -7046029254386353131 // 0x9E3779B97F4A7C15 as int64

// HashMix emits rd = (key * fibMul) >> (64 - bits), a multiplicative hash
// producing a value in [0, 2^bits).
func (b *Builder) HashMix(rd, key Reg, bits int64) {
	b.Muli(rd, key, fibMul)
	b.Shri(rd, rd, 64-bits)
}

// FetchAdd emits the read-modify-write idiom on an absolute word address:
// tmp = mem[addr]; tmp += delta; mem[addr] = tmp. Inside a transaction this
// is the shared-counter pattern of Figure 2; the loaded value stays in tmp
// so callers can branch on it or store it elsewhere. Program generators use
// it as the canonical commutative shared update.
func (b *Builder) FetchAdd(tmp Reg, addr, delta int64) {
	b.Ld(tmp, Zero, addr, 8)
	b.Addi(tmp, tmp, delta)
	b.St(tmp, Zero, addr, 8)
}

// BusyLoop emits a delay loop that executes exactly 1 + 2*max(count,1)
// instructions (the li, then one addi/bgt pair per iteration), using ctr
// as a scratch counter. It models private computation (parsing, string
// processing, routing) that occupies the core without touching shared
// memory. The loop is a BusyLoopHead idiom whenever ctr is not the zero
// register.
func (b *Builder) BusyLoop(ctr Reg, count int64, label string) {
	b.Li(ctr, count)
	b.Label(label)
	b.Addi(ctr, ctr, -1)
	b.Bgt(ctr, Zero, label)
}
