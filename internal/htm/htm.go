// Package htm implements the baseline hardware-transactional-memory
// mechanisms of Blundell et al. §2: per-block speculatively-read/written
// bits, eager version management via an undo log with zero-cycle rollback,
// register checkpointing, and "oldest transaction wins" timestamp-based
// contention management.
package htm

import "repro/internal/isa"

// SpecBits records a transaction's speculative access metadata for one
// block.
type SpecBits struct {
	Read    bool
	Written bool
}

// specEntry is one occupied SpecSet slot, stored inline by value.
type specEntry struct {
	block int64
	bits  SpecBits
}

// SpecSet is the bounded set of blocks a transaction has speculatively
// accessed. Its capacity models the L1's tag capacity plus the
// permissions-only cache; on the paper's workloads it never fills (the
// simulator records an overflow statistic and aborts the transaction if it
// ever does, mirroring a OneTM fallback without modeling its serialized
// mode). Entries live inline in a small buffer scanned linearly: conflict
// checks run on every coherence request, transactions touch a handful of
// blocks, and at that occupancy a linear scan over inline values beats a
// map hash — and allocates nothing.
type SpecSet struct {
	entries []specEntry
	cap     int
}

// NewSpecSet creates a SpecSet with the given block capacity.
func NewSpecSet(capacity int) *SpecSet {
	return &SpecSet{cap: capacity}
}

// find returns the index of block in the entry buffer, or -1.
func (s *SpecSet) find(block int64) int {
	for i := range s.entries {
		if s.entries[i].block == block {
			return i
		}
	}
	return -1
}

// Get returns the bits for block and whether any are set.
func (s *SpecSet) Get(block int64) (SpecBits, bool) {
	if i := s.find(block); i >= 0 {
		return s.entries[i].bits, true
	}
	return SpecBits{}, false
}

// Has reports whether block has any speculative bits set.
func (s *SpecSet) Has(block int64) bool { return s.find(block) >= 0 }

// Mark sets the read or written bit for block. It reports false when the
// set is full and the block is not already present (overflow).
func (s *SpecSet) Mark(block int64, write bool) bool {
	i := s.find(block)
	if i < 0 {
		if len(s.entries) >= s.cap {
			return false
		}
		s.entries = append(s.entries, specEntry{block: block})
		i = len(s.entries) - 1
	}
	if write {
		s.entries[i].bits.Written = true
	} else {
		s.entries[i].bits.Read = true
	}
	return true
}

// Len returns the number of blocks with speculative bits set.
func (s *SpecSet) Len() int { return len(s.entries) }

// Cap returns the set's block capacity. The fuzz harness checks generated
// footprints against it so that speculative-metadata overflow (and the
// OneTM-style abort it triggers) happens only when a test asks for it.
func (s *SpecSet) Cap() int { return s.cap }

// SetCap changes the capacity (machine reuse across configurations). The
// set must be empty.
func (s *SpecSet) SetCap(capacity int) {
	if len(s.entries) != 0 {
		panic("htm: SetCap on a non-empty SpecSet")
	}
	s.cap = capacity
}

// Clear removes all bits (commit or abort), keeping the buffer.
func (s *SpecSet) Clear() { s.entries = s.entries[:0] }

// Blocks calls fn for every block with bits set, in insertion order.
func (s *SpecSet) Blocks(fn func(block int64, b SpecBits)) {
	for i := range s.entries {
		fn(s.entries[i].block, s.entries[i].bits)
	}
}

// UndoEntry records the pre-transaction bytes of one store for eager
// version management.
type UndoEntry struct {
	Addr int64
	Size uint8
	Old  int64
}

// Tx is the per-core transactional state. Its SpecSet is held by value,
// so a conflict check reaches the entries without a pointer hop. The zero
// Tx is ready for Reset.
type Tx struct {
	Active  bool
	TS      int64 // global-order timestamp; retained across aborts (oldest wins)
	BeginPC int   // PC of the TXBEGIN instruction, the restart point
	RegCkpt [isa.NumRegs]int64
	Undo    []UndoEntry
	Spec    SpecSet

	Aborts     int   // aborts of the current attempt chain
	StartCycle int64 // cycle the current attempt began

	// Cycle attribution accumulated during the current attempt, moved to
	// the conflict category if the attempt aborts (Figure 4 accounting).
	AccumBusy  int64
	AccumOther int64
}

// NewTx creates transactional state with the given spec-set capacity.
func NewTx(specCapacity int) *Tx {
	return &Tx{Spec: SpecSet{cap: specCapacity}}
}

// Reset returns the Tx to its freshly-constructed state with the given
// spec-set capacity, keeping the undo log's and spec set's buffers
// (machine reuse across runs).
func (t *Tx) Reset(specCapacity int) {
	t.Active = false
	t.TS = 0
	t.BeginPC = 0
	t.RegCkpt = [isa.NumRegs]int64{}
	t.Undo = t.Undo[:0]
	t.Spec.Clear()
	t.Spec.SetCap(specCapacity)
	t.Aborts = 0
	t.StartCycle = 0
	t.AccumBusy = 0
	t.AccumOther = 0
}

// Begin starts (or restarts) a transaction at pc with the given timestamp
// and register snapshot. The timestamp is assigned once per transaction and
// survives aborts.
func (t *Tx) Begin(pc int, ts int64, regs *[isa.NumRegs]int64, now int64) {
	t.Active = true
	t.BeginPC = pc
	t.TS = ts
	t.RegCkpt = *regs
	t.Undo = t.Undo[:0]
	t.Spec.Clear()
	t.StartCycle = now
	t.AccumBusy = 0
	t.AccumOther = 0
}

// LogStore records the old value of a store for rollback.
func (t *Tx) LogStore(addr int64, size uint8, old int64) {
	t.Undo = append(t.Undo, UndoEntry{Addr: addr, Size: size, Old: old})
}

// Rollback applies the undo log in reverse via the writer func and resets
// speculative state. The caller restores registers and PC.
func (t *Tx) Rollback(write func(addr int64, size uint8, v int64)) {
	for i := len(t.Undo) - 1; i >= 0; i-- {
		u := t.Undo[i]
		write(u.Addr, u.Size, u.Old)
	}
	t.Undo = t.Undo[:0]
	t.Spec.Clear()
	t.Active = false
}

// Commit discards version-management state, making all stores permanent.
func (t *Tx) Commit() {
	t.Undo = t.Undo[:0]
	t.Spec.Clear()
	t.Active = false
	t.Aborts = 0
}

// OlderWins implements the paper's timestamp contention policy: the
// transaction with the smaller (older) timestamp wins; core ID breaks ties
// deterministically.
func OlderWins(tsA int64, coreA int, tsB int64, coreB int) bool {
	if tsA != tsB {
		return tsA < tsB
	}
	return coreA < coreB
}
