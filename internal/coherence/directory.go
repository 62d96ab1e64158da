// Package coherence models the directory-based MSI protocol of Table 1:
// per-block owner/sharer tracking with 20-cycle hop and 100-cycle DRAM
// latencies.
//
// Two standard simplifications keep the model deterministic and simple
// while preserving everything the HTM cares about:
//
//   - Atomic state, delayed timing: a request's directory state change is
//     applied at issue; the requesting core then stalls for the computed
//     latency. In-order 1-IPC cores have at most one outstanding miss, so
//     this is equivalent to a detailed model up to contention on the
//     interconnect (which Table 1 does not model either).
//
//   - Sticky presence: voluntary cache evictions do not notify the
//     directory, so sharer sets are supersets of true presence. Stale
//     sharers cost only an (idempotent) invalidation message; conflict
//     detection consults the HTM's speculative-bit structures, which are
//     exact. This also subsumes the permissions-only cache: a core's
//     conflict-detection metadata survives data eviction, exactly as in
//     OneTM [5].
package coherence

import (
	"fmt"
	"math/bits"
)

// State is the directory-visible MSI state of a block.
type State uint8

// Directory block states.
const (
	Invalid State = iota
	Shared
	Modified
)

// NoOwner marks a block with no modified owner.
const NoOwner = -1

// Entry is the directory's record for one block, 16 bytes: the sharer
// bitmap, the run epoch, the owner and the state. Owner fits an int8
// because a machine has at most 64 cores (sim.Params.Validate), the same
// bound the 64-bit sharer bitmap sets.
type Entry struct {
	Sharers uint64 // bitmap over cores (superset of true presence)

	// epoch validates the entry against the directory's current run: an
	// entry whose epoch lags is logically Invalid, which makes Reset O(1)
	// instead of a sweep over every block.
	epoch uint32

	Owner int8 // core holding M, or NoOwner
	State State
}

// HasSharer reports whether core c is in the sharer set.
func (e *Entry) HasSharer(c int) bool { return e.Sharers&(1<<uint(c)) != 0 }

// Latencies are the coherence timing parameters.
type Latencies struct {
	Hop  int64 // per network hop (Table 1: 20)
	DRAM int64 // memory lookup (Table 1: 100)
	// DRAMOccupancy is how long each memory lookup occupies the (single)
	// memory controller. Concurrent misses queue behind each other, which
	// bounds aggregate memory bandwidth — the effect that limits scaling
	// for workloads with poor cache behavior (ssca2 in the paper).
	DRAMOccupancy int64
}

// Directory tracks every block of the memory image as one slot of a dense
// array indexed by block number: the image's bump allocator yields a
// compact 0..Blocks-1 block range, so the per-request map hash and
// per-entry heap allocation of a sparse directory would sit directly on
// the simulator's hottest path for no reach the model needs. Blocks never
// referenced are implicitly Invalid.
type Directory struct {
	NumCores int
	Lat      Latencies
	entries  []Entry
	// blocks is the logical block count of the current image; the entry
	// array is grow-only storage (machine reuse), so len(entries) may
	// exceed it and bounds checks must use blocks, not capacity.
	blocks int64
	epoch  uint32

	dramFree int64 // first cycle the memory controller is free
	// DRAMAccesses counts memory lookups; DRAMQueue accumulates queuing
	// delay, exposing how bandwidth-bound a run was.
	DRAMAccesses int64
	DRAMQueue    int64
}

// dram returns the latency of a memory lookup issued at cycle now,
// including queuing behind earlier lookups at the memory controller.
func (d *Directory) dram(now int64) int64 {
	lat := d.Lat.DRAM
	if d.Lat.DRAMOccupancy > 0 {
		start := now
		if d.dramFree > start {
			start = d.dramFree
		}
		d.dramFree = start + d.Lat.DRAMOccupancy
		queue := start - now
		d.DRAMQueue += queue
		lat += queue
	}
	d.DRAMAccesses++
	return lat
}

// New creates a directory for numCores cores over a memory image of the
// given block count (mem.Image.Blocks).
func New(numCores int, blocks int64, lat Latencies) *Directory {
	if blocks < 0 {
		panic(fmt.Sprintf("coherence: negative block count %d", blocks))
	}
	return &Directory{NumCores: numCores, Lat: lat, entries: make([]Entry, blocks), blocks: blocks, epoch: 1}
}

// Reset prepares the directory for a fresh run over an image of the given
// block count: every entry reverts to Invalid (by epoch, in O(1)) and the
// memory-controller state and counters clear. The entry array only grows,
// so a reused directory accommodates the largest image it has seen.
func (d *Directory) Reset(numCores int, blocks int64, lat Latencies) {
	if blocks > int64(len(d.entries)) {
		d.entries = make([]Entry, blocks)
	}
	d.blocks = blocks
	d.epoch++
	if d.epoch == 0 {
		// Epoch wrap: scrub stale epochs once every 2^32 resets so an
		// ancient entry can never alias the fresh epoch.
		clear(d.entries)
		d.epoch = 1
	}
	d.NumCores = numCores
	d.Lat = lat
	d.dramFree = 0
	d.DRAMAccesses = 0
	d.DRAMQueue = 0
}

// Blocks returns the number of blocks of the current image the directory
// covers (the backing array may be larger after a shrinking Reset).
func (d *Directory) Blocks() int64 { return d.blocks }

// Entry returns the directory entry for block, creating it as Invalid.
// The block must lie inside the memory image the directory was sized for;
// a simulated access outside it is a program-construction bug and fails
// loudly here (the memory image applies the same bound to the data).
func (d *Directory) Entry(block int64) *Entry {
	if block < 0 || block >= d.blocks {
		panic(fmt.Sprintf("coherence: block %d outside the image (directory covers %d blocks)", block, d.blocks))
	}
	e := &d.entries[block]
	if e.epoch != d.epoch {
		*e = Entry{Owner: NoOwner, epoch: d.epoch}
	}
	return e
}

// Peek returns the entry if the block has been referenced this run,
// without creating one. Out-of-image blocks fail loudly, as in Entry.
func (d *Directory) Peek(block int64) (*Entry, bool) {
	if block < 0 || block >= d.blocks {
		panic(fmt.Sprintf("coherence: block %d outside the image (directory covers %d blocks)", block, d.blocks))
	}
	e := &d.entries[block]
	if e.epoch != d.epoch {
		return nil, false
	}
	return e, true
}

// ReadTargets returns the core whose copy must be downgraded before core c
// may read block (the modified owner), or NoOwner. No state is changed;
// the caller performs conflict resolution first.
func (d *Directory) ReadTargets(c int, block int64) int {
	e := d.Entry(block)
	if e.State == Modified && int(e.Owner) != c {
		return int(e.Owner)
	}
	return NoOwner
}

// WriteTargets appends to dst the cores whose copies must be invalidated
// before core c may write block. No state is changed.
func (d *Directory) WriteTargets(c int, block int64, dst []int) []int {
	e := d.Entry(block)
	if e.State == Modified && int(e.Owner) != c {
		dst = append(dst, int(e.Owner))
		return dst
	}
	// Iterate set bits only: sharer sets are sparse, and a per-write scan
	// over all NumCores costs real time at 64 cores.
	for rem := e.Sharers &^ (1 << uint(c)); rem != 0; rem &= rem - 1 {
		dst = append(dst, bits.TrailingZeros64(rem))
	}
	return dst
}

// ApplyRead commits a read by core c issued at cycle now: the modified
// owner (if any) is downgraded to sharer and c joins the sharer set. It
// returns the request latency: two hops to/from the directory, plus either
// an owner forward (one hop) or a DRAM lookup when no cached copy can
// supply data.
func (d *Directory) ApplyRead(c int, block int64, now int64) int64 {
	e := d.Entry(block)
	lat := 2 * d.Lat.Hop
	switch {
	case e.State == Modified && int(e.Owner) != c:
		lat += d.Lat.Hop // owner forwards data
		e.Sharers |= 1 << uint(e.Owner)
		e.Owner = NoOwner
		e.State = Shared
	case e.State == Modified && int(e.Owner) == c:
		// Re-fetch after self-eviction; data comes from memory (the dirty
		// line was written back architecturally the whole time).
		lat += d.dram(now)
	case e.State == Shared:
		lat += d.dram(now) // memory supplies data (no cache-to-cache for S)
	default:
		lat += d.dram(now)
		e.State = Shared
	}
	e.Sharers |= 1 << uint(c)
	if e.State == Invalid {
		e.State = Shared
	}
	return lat
}

// ApplyWrite commits a write by core c: all other copies are invalidated
// and c becomes the modified owner. Invalidations are sent in parallel, so
// the added cost is a single hop when any invalidation (or owner transfer)
// is required, plus DRAM when no cached copy supplies the data.
func (d *Directory) ApplyWrite(c int, block int64, now int64) int64 {
	e := d.Entry(block)
	lat := 2 * d.Lat.Hop
	hadCopies := false
	if e.State == Modified && int(e.Owner) != c {
		hadCopies = true
	}
	if e.Sharers&^(1<<uint(c)) != 0 {
		hadCopies = true
	}
	if hadCopies {
		lat += d.Lat.Hop // parallel invalidations + ack
	}
	ownCopy := e.HasSharer(c) || (e.State == Modified && int(e.Owner) == c)
	if !hadCopies && !ownCopy {
		lat += d.dram(now)
	}
	e.State = Modified
	e.Owner = int8(c)
	e.Sharers = 1 << uint(c)
	return lat
}
