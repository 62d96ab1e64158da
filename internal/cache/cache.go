// Package cache models the private per-core cache hierarchy of Table 1:
// a 64KB 4-way L1 and a 1MB 4-way private L2, both with 64-byte blocks and
// LRU replacement. The caches are timing-only — architectural data lives in
// the flat memory image — so the model tracks tags, not bytes.
//
// Speculative read/write metadata is NOT stored here: the HTM layer keeps
// it in a bounded side structure that survives eviction, which models the
// baseline system's permissions-only cache (Blundell et al. §2: the
// permissions-only cache "essentially eliminates cache overflows" on these
// workloads).
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Cache is one level of a set-associative, LRU, timing-only cache.
//
// Each line is one uint64: the block's tag (block >> setBits; the set
// index is implied by the line's position) in the high 32 bits and its
// LRU stamp in the low 32. A line is live only when its stamp is at least
// the resetBase watermark, which is always at least 1, so stamp 0 marks
// an empty line and no tag value is reserved. Bulk reset (machine reuse
// between runs) raises the watermark above every existing stamp — O(1) —
// instead of clearing the line array per run; the stamp clock keeps
// running across runs, so relative LRU order is untouched. Invalidation
// zeroes the line's stamp.
//
// When the 32-bit clock is about to wrap, every set's live stamps are
// rewritten as their LRU ranks within the set (1 = least recent) and the
// clock restarts above them (see renormalise). Victim choice only ever
// compares stamps within one set, so the order it sees stays exact.
type Cache struct {
	mask    uint64 //retcon:reset-keep construction geometry (sets-1); resetTo rebuilds when it changes
	setBits uint   //retcon:reset-keep construction geometry (log2 sets); resetTo rebuilds when it changes
	ways    int    //retcon:reset-keep construction geometry; resetTo rebuilds when it changes
	//retcon:reset-keep line storage; lines stamped below the resetBase watermark are empty
	lines     []uint64 // sets*ways lines: tag<<32 | stamp
	stamp     uint32   // LRU clock: the stamp last written to a line
	resetBase uint32   // lines with a stamp below it are empty; always >= 1
}

// Sets returns the set count sizeBytes/(ways*blockSize), or why New
// cannot build that geometry: ways and blockSize must be positive and the
// set count a positive power of two. sim.Params.Validate uses it so a bad
// configuration fails before any machine is built.
func Sets(sizeBytes int64, ways int, blockSize int64) (int64, error) {
	if ways < 1 || blockSize < 1 {
		return 0, fmt.Errorf("ways (%d) and block size (%d) must be positive", ways, blockSize)
	}
	// Divide in two steps so a huge ways cannot overflow ways*blockSize.
	n := sizeBytes / blockSize / int64(ways)
	if n <= 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("%d bytes in %d ways of %d-byte blocks gives %d sets; the set count must be a positive power of two",
			sizeBytes, ways, blockSize, n)
	}
	return n, nil
}

// New creates a cache of sizeBytes capacity with the given associativity
// and block size. New panics on a geometry Sets rejects.
func New(sizeBytes int64, ways int, blockSize int64) *Cache {
	c := &Cache{}
	c.resetTo(sizeBytes, ways, blockSize)
	return c
}

// resetTo empties the cache for the given geometry, keeping the line array
// when the geometry is unchanged and building a new one otherwise. The
// zero Cache is ready for resetTo.
func (c *Cache) resetTo(sizeBytes int64, ways int, blockSize int64) {
	n, err := Sets(sizeBytes, ways, blockSize)
	if err != nil {
		panic("cache: " + err.Error())
	}
	if c.lines != nil && c.mask == uint64(n-1) && c.ways == ways {
		c.Reset()
		return
	}
	*c = Cache{mask: uint64(n - 1), setBits: uint(bits.TrailingZeros64(uint64(n))), ways: ways,
		lines: make([]uint64, n*int64(ways)), resetBase: 1}
}

// Reset empties the cache, keeping the line array (machine reuse across
// runs). It is O(1): the validity watermark moves above every live stamp.
// At the clock's wrap it clears the lines and restarts the clock instead.
func (c *Cache) Reset() {
	if c.stamp == math.MaxUint32 {
		clear(c.lines)
		c.stamp = 0
	}
	c.resetBase = c.stamp + 1
}

// locate returns block's set of lines and its tag. (setBits is below 64;
// the mask tells the compiler so.)
func (c *Cache) locate(block int64) (set []uint64, tag uint64) {
	base := int(uint64(block)&c.mask) * c.ways
	return c.lines[base : base+c.ways], uint64(block) >> (c.setBits & 63)
}

// live reports whether line l holds a block this run.
func (c *Cache) live(l uint64) bool { return uint32(l) >= c.resetBase }

// find returns the index in set of the live line holding tag, or -1. A
// negative block, or one whose tag needs more than 32 bits, matches no
// line.
func (c *Cache) find(set []uint64, tag uint64) int {
	for i, l := range set {
		if l>>32 == tag && c.live(l) {
			return i
		}
	}
	return -1
}

// tick advances the LRU clock and returns the new stamp, renormalising the
// stamps first when the clock would wrap.
func (c *Cache) tick() uint32 {
	if c.stamp == math.MaxUint32 {
		c.renormalise()
	}
	c.stamp++
	return c.stamp
}

// renormalise rewrites every live line's stamp as its LRU rank within its
// set (1 = least recent) and every other line's as 0 (empty), then
// restarts the clock above the largest possible rank. Live stamps within
// a set are distinct, so the ranks keep each set's LRU order exactly.
func (c *Cache) renormalise() {
	ranks := make([]uint64, c.ways)
	for base := 0; base < len(c.lines); base += c.ways {
		set := c.lines[base : base+c.ways]
		for i, l := range set {
			ranks[i] = 0
			if !c.live(l) {
				continue
			}
			ranks[i] = 1
			for _, o := range set {
				if c.live(o) && uint32(o) < uint32(l) {
					ranks[i]++
				}
			}
		}
		for i, l := range set {
			set[i] = l&^math.MaxUint32 | ranks[i]
		}
	}
	c.resetBase = 1
	c.stamp = uint32(c.ways)
}

// Contains reports whether the block is present without touching LRU state.
func (c *Cache) Contains(block int64) bool {
	set, tag := c.locate(block)
	return c.find(set, tag) >= 0
}

// Lookup reports whether the block is present, updating LRU on a hit but
// never inserting. A miss leaves the clock alone: only stamps written to
// lines need to be ordered.
func (c *Cache) Lookup(block int64) bool {
	set, tag := c.locate(block)
	if i := c.find(set, tag); i >= 0 {
		set[i] = tag<<32 | uint64(c.tick())
		return true
	}
	return false
}

// Access looks up the block, updating LRU on a hit. On a miss it inserts
// the block, returning the evicted block (victim >= 0) if a live line was
// displaced. The victim is the last empty way of the set, or the least
// recently used way when none is empty.
func (c *Cache) Access(block int64) (hit bool, victim int64) {
	set, tag := c.locate(block)
	if tag > math.MaxUint32 {
		panic(fmt.Sprintf("cache: block %d is outside the cache's 32-bit tag range", block))
	}
	// An empty way's key is 0 and a live way's is its stamp (at least 1),
	// so the smallest key wins, with the last of several empty ways.
	victimIdx, victimKey := 0, uint32(math.MaxUint32)
	for i, l := range set {
		if l>>32 == tag && c.live(l) {
			set[i] = tag<<32 | uint64(c.tick())
			return true, -1
		}
		key := uint32(l)
		if !c.live(l) {
			key = 0
		}
		if key == 0 || key < victimKey {
			victimIdx, victimKey = i, key
		}
	}
	victim = -1
	if victimKey != 0 {
		victim = int64(set[victimIdx]>>32<<c.setBits | uint64(block)&c.mask)
	}
	set[victimIdx] = tag<<32 | uint64(c.tick())
	return false, victim
}

// Invalidate removes the block if present.
func (c *Cache) Invalidate(block int64) {
	set, tag := c.locate(block)
	if i := c.find(set, tag); i >= 0 {
		set[i] = 0
	}
}

// Hierarchy is one core's private L1+L2 pair, both levels held by value
// so a probe reaches the line arrays without a pointer hop. It is
// inclusive in the weak sense used by the timing model: L1 insertions also
// insert into L2, and invalidations clear both levels.
type Hierarchy struct {
	L1 Cache
	L2 Cache

	// Latencies in cycles.
	L1Hit int64
	L2Hit int64
}

// NewHierarchy builds a hierarchy; the Table 1 configuration is a 64KB
// 4-way L1 (1-cycle hit), a 1MB 4-way L2 (10-cycle hit) and 64B blocks.
func NewHierarchy(l1Bytes, l2Bytes int64, ways int, blockSize, l1Hit, l2Hit int64) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(l1Bytes, l2Bytes, ways, blockSize, l1Hit, l2Hit)
	return h
}

// Reset empties the hierarchy in place for the requested configuration.
// Each level keeps its line array when its geometry is unchanged and is
// rebuilt otherwise; the zero Hierarchy is ready for Reset. This is the
// machine-reuse plug point.
func (h *Hierarchy) Reset(l1Bytes, l2Bytes int64, ways int, blockSize, l1Hit, l2Hit int64) {
	h.L1.resetTo(l1Bytes, ways, blockSize)
	h.L2.resetTo(l2Bytes, ways, blockSize)
	h.L1Hit = l1Hit
	h.L2Hit = l2Hit
}

// Probe performs a lookup for block and returns the access latency and
// whether the request missed both levels (and so must go to the directory;
// the caller adds the coherence latency). Probe does NOT install the
// block: a miss whose coherence request is NACKed by conflict resolution
// must leave the hierarchy unchanged, otherwise the retry would "hit" and
// silently read a remote transaction's speculative data. Call Fill once
// the request succeeds.
func (h *Hierarchy) Probe(block int64) (lat int64, missToDir bool) {
	if h.L1.Lookup(block) {
		return h.L1Hit, false
	}
	if h.L2.Lookup(block) {
		// L2 hit refills L1.
		h.L1.Access(block)
		return h.L1Hit + h.L2Hit, false
	}
	return h.L1Hit + h.L2Hit, true
}

// Fill installs the block into both levels after a successful coherence
// request.
func (h *Hierarchy) Fill(block int64) {
	h.L1.Access(block)
	h.L2.Access(block)
}

// Invalidate removes the block from both levels (external invalidation or
// transactional loss of a symbolically tracked block).
func (h *Hierarchy) Invalidate(block int64) {
	h.L1.Invalidate(block)
	h.L2.Invalidate(block)
}

// Contains reports whether either level holds the block.
func (h *Hierarchy) Contains(block int64) bool {
	return h.L1.Contains(block) || h.L2.Contains(block)
}
