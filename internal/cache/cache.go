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

// Cache is one level of a set-associative, LRU, timing-only cache.
//
// Line validity is watermark-based: a line is present only when its LRU
// stamp is at least resetBase. Bulk reset (machine reuse between runs)
// then just raises the watermark above every existing stamp — O(1) —
// instead of memsetting megabytes of tag arrays per run; the stamp
// counter itself is monotone across runs, so relative LRU order is
// untouched. Individual invalidations still clear the tag explicitly.
type Cache struct {
	sets int64 //retcon:reset-keep construction geometry, never varies across runs
	ways int   //retcon:reset-keep construction geometry, never varies across runs
	//retcon:reset-keep tag storage; entries below the resetBase watermark are invalid
	tags []int64 // sets*ways entries; -1 = explicitly invalidated
	//retcon:reset-keep LRU stamps; entries below the resetBase watermark are invalid
	lru       []int64 // last-use stamps, parallel to tags
	stamp     int64
	resetBase int64 // entries with lru < resetBase are invalid (pre-reset)
}

// New creates a cache of sizeBytes capacity with the given associativity
// and block size. sizeBytes must be a multiple of ways*blockSize and the
// set count must be a power of two.
func New(sizeBytes int64, ways int, blockSize int64) *Cache {
	sets := sizeBytes / (int64(ways) * blockSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	c := &Cache{sets: sets, ways: ways}
	c.tags = make([]int64, sets*int64(ways))
	c.lru = make([]int64, sets*int64(ways))
	c.Reset()
	return c
}

// Reset empties the cache, keeping the tag arrays (machine reuse across
// runs). It is O(1): the validity watermark moves above every live stamp.
func (c *Cache) Reset() {
	c.resetBase = c.stamp + 1
}

func (c *Cache) set(block int64) int64 { return block & (c.sets - 1) }

// valid reports whether entry i holds a live line.
func (c *Cache) valid(i int64) bool { return c.tags[i] != -1 && c.lru[i] >= c.resetBase }

// Contains reports whether the block is present without touching LRU state.
func (c *Cache) Contains(block int64) bool {
	base := c.set(block) * int64(c.ways)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == block && c.lru[i] >= c.resetBase {
			return true
		}
	}
	return false
}

// Lookup reports whether the block is present, updating LRU on a hit but
// never inserting.
func (c *Cache) Lookup(block int64) bool {
	c.stamp++
	base := c.set(block) * int64(c.ways)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == block && c.lru[i] >= c.resetBase {
			c.lru[i] = c.stamp
			return true
		}
	}
	return false
}

// Access looks up the block, updating LRU on a hit. On a miss it inserts
// the block, returning the evicted block (victim >= 0) if a valid line was
// displaced.
func (c *Cache) Access(block int64) (hit bool, victim int64) {
	c.stamp++
	base := c.set(block) * int64(c.ways)
	victimIdx, victimLRU := base, int64(-1)
	if c.valid(base) {
		victimLRU = c.lru[base]
	}
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == block && c.lru[i] >= c.resetBase {
			c.lru[i] = c.stamp
			return true, -1
		}
		if !c.valid(i) {
			victimIdx, victimLRU = i, -1
		} else if victimLRU >= 0 && c.lru[i] < victimLRU {
			victimIdx, victimLRU = i, c.lru[i]
		}
	}
	victim = -1
	if c.valid(victimIdx) {
		victim = c.tags[victimIdx]
	}
	c.tags[victimIdx] = block
	c.lru[victimIdx] = c.stamp
	return false, victim
}

// Invalidate removes the block if present.
func (c *Cache) Invalidate(block int64) {
	base := c.set(block) * int64(c.ways)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == block && c.lru[i] >= c.resetBase {
			c.tags[i] = -1
			return
		}
	}
}

// Hierarchy is one core's private L1+L2 pair. It is inclusive in the weak
// sense used by the timing model: L1 insertions also insert into L2, and
// invalidations clear both levels.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	// Latencies in cycles.
	L1Hit int64
	L2Hit int64

	// Construction geometry, kept so ResetFor can tell a clearable
	// hierarchy from one that must be rebuilt.
	l1Bytes, l2Bytes, blockSize int64
	ways                        int
}

// NewHierarchy builds the Table 1 configuration: 64KB 4-way L1 (1-cycle
// hit), 1MB 4-way L2 (10-cycle hit), 64B blocks.
func NewHierarchy(l1Bytes, l2Bytes int64, ways int, blockSize, l1Hit, l2Hit int64) *Hierarchy {
	return &Hierarchy{
		L1:        New(l1Bytes, ways, blockSize),
		L2:        New(l2Bytes, ways, blockSize),
		L1Hit:     l1Hit,
		L2Hit:     l2Hit,
		l1Bytes:   l1Bytes,
		l2Bytes:   l2Bytes,
		ways:      ways,
		blockSize: blockSize,
	}
}

// ResetFor returns an empty hierarchy with the requested configuration:
// the receiver itself (cleared in place, reusing its tag arrays) when the
// geometry matches, or a freshly built hierarchy otherwise. A nil receiver
// always builds. This is the machine-reuse plug point.
func (h *Hierarchy) ResetFor(l1Bytes, l2Bytes int64, ways int, blockSize, l1Hit, l2Hit int64) *Hierarchy {
	if h == nil || h.l1Bytes != l1Bytes || h.l2Bytes != l2Bytes || h.ways != ways || h.blockSize != blockSize {
		return NewHierarchy(l1Bytes, l2Bytes, ways, blockSize, l1Hit, l2Hit)
	}
	h.L1.Reset()
	h.L2.Reset()
	h.L1Hit = l1Hit
	h.L2Hit = l2Hit
	return h
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
