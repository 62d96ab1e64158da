package htm

import "math/bits"

// Predictor decides which blocks a core should track symbolically. It
// learns from observed conflicts (§5.1: "RETCON uses a predictor to
// determine which data blocks invoke value-based and symbolic tracking.
// The predictor learns based on observed conflicts. ... a violated
// constraint causes the predictor to train down aggressively, requiring
// the observation of 100 conflicts on that block before attempting
// symbolic tracking on that block again").
//
// The table is a flat open-addressing hash (linear probing, power-of-two
// size) rather than a Go map: Tracks sits on the symbolic-mode load path,
// where one multiply-shift hash and a probe over inline value slots beats
// the map's hashing and bucket walk, and entries never allocate. Slots
// are epoch-tagged — a slot belongs to the current epoch or is vacant —
// so Reset is one counter increment instead of an O(buckets) clear,
// which keeps pooled-machine Reset cost flat for short-run sweeps. The
// zero Predictor is ready for Reset or ResetTo.
type Predictor struct {
	// PromoteAfter is the number of observed conflicts before a block is
	// tracked symbolically.
	PromoteAfter int
	// ViolationPenalty is the number of conflicts required after a
	// constraint violation before tracking is attempted again.
	ViolationPenalty int

	//retcon:reset-keep epoch-tagged storage; the Reset epoch bump vacates every slot
	slots []predSlot
	//retcon:reset-keep tied to len(slots), which Reset keeps
	shift uint // 64 - log2(len(slots)): multiply-shift hash to slot index
	live  int  // slots belonging to the current epoch
	epoch uint64
}

type predSlot struct {
	block     int64
	epoch     uint64 // == Predictor.epoch when the slot is live
	conflicts int32
	tracking  bool
}

// predInitialSlots is the starting table size (per core; the table doubles
// at 3/4 load). fibHash spreads block numbers — which are dense small
// integers — across the whole table.
const predInitialSlots = 256

func fibHash(block int64, shift uint) int {
	return int((uint64(block) * 0x9E3779B97F4A7C15) >> shift)
}

// NewPredictor creates a predictor with the paper's parameters
// (promote quickly, 100-conflict penalty after a violated constraint).
func NewPredictor(promoteAfter, violationPenalty int) *Predictor {
	p := &Predictor{}
	p.ResetTo(promoteAfter, violationPenalty)
	return p
}

// find returns the live slot for block, or nil. Live entries form
// contiguous probe runs (insertion claims the first vacant slot and
// nothing is ever deleted within an epoch), so the probe stops at the
// first vacant slot.
//
//retcon:hotpath probe under every symbolic-mode load
func (p *Predictor) find(block int64) *predSlot {
	mask := len(p.slots) - 1
	for i := fibHash(block, p.shift); ; i = (i + 1) & mask {
		s := &p.slots[i]
		if s.epoch != p.epoch {
			return nil
		}
		if s.block == block {
			return s
		}
	}
}

// slot returns the live slot for block, inserting a zeroed one if absent.
func (p *Predictor) slot(block int64) *predSlot {
	mask := len(p.slots) - 1
	for i := fibHash(block, p.shift); ; i = (i + 1) & mask {
		s := &p.slots[i]
		if s.epoch != p.epoch {
			if p.live >= len(p.slots)-len(p.slots)/4 {
				p.grow()
				return p.slot(block)
			}
			*s = predSlot{block: block, epoch: p.epoch}
			p.live++
			return s
		}
		if s.block == block {
			return s
		}
	}
}

// grow doubles the table, rehashing only the current epoch's entries.
func (p *Predictor) grow() {
	old := p.slots
	p.slots = make([]predSlot, 2*len(old))
	p.shift--
	mask := len(p.slots) - 1
	for _, s := range old {
		if s.epoch != p.epoch {
			continue
		}
		i := fibHash(s.block, p.shift)
		for ; p.slots[i].epoch == p.epoch; i = (i + 1) & mask {
		}
		p.slots[i] = s
	}
}

// Tracks reports whether loads from block should initiate symbolic
// tracking.
//
//retcon:hotpath probe under every symbolic-mode load
func (p *Predictor) Tracks(block int64) bool {
	s := p.find(block)
	return s != nil && s.tracking
}

// ObserveConflict trains the predictor up: the core aborted, was stalled,
// or aborted a peer because of block.
func (p *Predictor) ObserveConflict(block int64) {
	s := p.slot(block)
	s.conflicts++
	if !s.tracking && s.conflicts >= int32(p.PromoteAfter) {
		s.tracking = true
	}
}

// ObserveConflicts is n ≥ 1 ObserveConflict calls on block in one step.
// Between those calls the count only grows and tracking is sticky, so
// the block ends up tracked exactly when the count reaches PromoteAfter
// along the way; summing in int64 keeps that test exact even where the
// stored count wraps as the calls' would.
func (p *Predictor) ObserveConflicts(block, n int64) {
	s := p.slot(block)
	sum := int64(s.conflicts) + n
	s.conflicts = int32(sum)
	if !s.tracking && sum >= int64(int32(p.PromoteAfter)) {
		s.tracking = true
	}
}

// ObserveViolation trains the predictor down after a symbolic constraint
// on the block failed at commit.
func (p *Predictor) ObserveViolation(block int64) {
	s := p.slot(block)
	s.tracking = false
	s.conflicts = int32(-p.ViolationPenalty + p.PromoteAfter)
}

// Reset forgets all history (used between independent benchmark runs),
// keeping the table's storage: bumping the epoch vacates every slot at
// once. The zero Predictor gets its table here.
func (p *Predictor) Reset() {
	if p.slots == nil {
		p.slots = make([]predSlot, predInitialSlots)
		p.shift = uint(64 - bits.TrailingZeros(predInitialSlots))
	}
	p.epoch++
	p.live = 0
}

// ResetTo is Reset with new training parameters (machine reuse across
// configurations).
func (p *Predictor) ResetTo(promoteAfter, violationPenalty int) {
	p.PromoteAfter = promoteAfter
	p.ViolationPenalty = violationPenalty
	p.Reset()
}
