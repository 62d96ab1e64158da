package cache

import (
	"math"
	"testing"
)

func TestLookupNeverInserts(t *testing.T) {
	c := New(1<<10, 4, 64) // 4 sets
	if c.Lookup(5) {
		t.Fatal("empty cache cannot hit")
	}
	if c.Contains(5) {
		t.Fatal("Lookup must not insert")
	}
	c.Access(5)
	if !c.Lookup(5) {
		t.Fatal("inserted block must hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(4*64, 4, 64) // one set, 4 ways
	for b := int64(0); b < 4; b++ {
		if hit, victim := c.Access(b); hit || victim != -1 {
			t.Fatalf("cold insert of %d: hit=%v victim=%d", b, hit, victim)
		}
	}
	c.Lookup(0) // make 0 most recent; 1 is now LRU
	if hit, victim := c.Access(4); hit || victim != 1 {
		t.Fatalf("expected victim 1, got hit=%v victim=%d", hit, victim)
	}
	if c.Contains(1) {
		t.Error("victim must be gone")
	}
	if !c.Contains(0) || !c.Contains(2) || !c.Contains(3) || !c.Contains(4) {
		t.Error("survivors must remain")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1<<10, 4, 64)
	c.Access(7)
	c.Invalidate(7)
	if c.Contains(7) {
		t.Error("invalidated block must be gone")
	}
	c.Invalidate(7) // idempotent
}

func TestSetIndexing(t *testing.T) {
	c := New(2*4*64, 4, 64) // 2 sets
	// Blocks 0 and 2 map to set 0; 1 and 3 to set 1.
	c.Access(0)
	c.Access(1)
	if !c.Contains(0) || !c.Contains(1) {
		t.Error("different sets must not interfere")
	}
}

func TestHitMissSequence(t *testing.T) {
	c := New(1<<10, 4, 64)
	if hit, _ := c.Access(1); hit {
		t.Error("first access must miss")
	}
	if hit, _ := c.Access(1); !hit {
		t.Error("second access must hit")
	}
	if c.Lookup(2) {
		t.Error("lookup of an absent block must miss")
	}
}

func TestHierarchyProbeFill(t *testing.T) {
	h := NewHierarchy(1<<10, 1<<12, 4, 64, 1, 10)
	lat, miss := h.Probe(9)
	if !miss || lat != 11 {
		t.Fatalf("cold probe: lat=%d miss=%v, want 11/true", lat, miss)
	}
	// The critical isolation property: a probe must not install the block
	// (a NACKed request would otherwise silently hit and read speculative
	// remote data on retry).
	if h.Contains(9) {
		t.Fatal("Probe must not install the block")
	}
	h.Fill(9)
	lat, miss = h.Probe(9)
	if miss || lat != 1 {
		t.Fatalf("after fill: lat=%d miss=%v, want 1/false", lat, miss)
	}
}

func TestHierarchyL2Refill(t *testing.T) {
	h := NewHierarchy(64*4, 1<<12, 4, 64, 1, 10)
	h.Fill(1)
	// Evict 1 from the single-set L1 by filling other blocks in its set.
	for b := int64(2); b < 7; b++ {
		h.Fill(b)
	}
	if h.L1.Contains(1) {
		t.Skip("block 1 still in L1; eviction pattern changed")
	}
	lat, miss := h.Probe(1)
	if miss || lat != 11 {
		t.Fatalf("L2 hit: lat=%d miss=%v, want 11/false", lat, miss)
	}
	if !h.L1.Contains(1) {
		t.Error("L2 hit must refill L1")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := NewHierarchy(1<<10, 1<<12, 4, 64, 1, 10)
	h.Fill(3)
	h.Invalidate(3)
	if h.Contains(3) {
		t.Error("invalidation must clear both levels")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count must panic")
		}
	}()
	New(3*64, 1, 64)
}

// TestLRUAcrossStampWrap runs one fixed sequence of Access, Lookup,
// Invalidate, Contains and Reset on a cache whose 32-bit LRU clock starts
// just below the wrap and on a reference cache whose clock starts at 0:
// every hit, victim and presence answer must agree. The starting offsets
// put the wrap inside a Lookup, inside an Access and exactly at a Reset.
func TestLRUAcrossStampWrap(t *testing.T) {
	const size, ways = 4 * 4 * 64, 4 // 4 sets of 4 ways
	// The op sequence: a fixed LCG over 24 blocks, so every set sees six
	// blocks competing for four ways and evicts constantly. Resets are
	// rare (ops 100 and 250), so sets fill up between them and the first
	// evictions after a wrap depend on the renormalised order.
	type op struct {
		kind  int // 0 Access, 1 Lookup, 2 Invalidate, 3 Reset
		block int64
	}
	var ops []op
	x := uint32(12345)
	for i := 0; i < 400; i++ {
		x = x*1664525 + 1013904223
		o := op{block: int64(x>>8) % 24}
		switch r := x >> 28; {
		case i == 100 || i == 250:
			o.kind = 3
		case r < 10:
			o.kind = 0
		case r < 14:
			o.kind = 1
		default:
			o.kind = 2
		}
		ops = append(ops, o)
	}
	var wrapLookup, wrapAccess, wrapReset bool
	for offset := uint32(0); offset < 128; offset++ {
		c, ref := New(size, ways, 64), New(size, ways, 64)
		c.stamp = math.MaxUint32 - offset
		c.Reset()
		for i, o := range ops {
			atMax := c.stamp == math.MaxUint32
			switch o.kind {
			case 0:
				hit, victim := c.Access(o.block)
				wantHit, wantVictim := ref.Access(o.block)
				if hit != wantHit || victim != wantVictim {
					t.Fatalf("offset %d op %d: Access(%d) = %v, %d; reference %v, %d", offset, i, o.block, hit, victim, wantHit, wantVictim)
				}
				wrapAccess = wrapAccess || atMax
			case 1:
				if got, want := c.Lookup(o.block), ref.Lookup(o.block); got != want {
					t.Fatalf("offset %d op %d: Lookup(%d) = %v; reference %v", offset, i, o.block, got, want)
				}
				wrapLookup = wrapLookup || atMax
			case 2:
				c.Invalidate(o.block)
				ref.Invalidate(o.block)
			case 3:
				c.Reset()
				ref.Reset()
				wrapReset = wrapReset || atMax
			}
			for b := int64(0); b < 24; b++ {
				if got, want := c.Contains(b), ref.Contains(b); got != want {
					t.Fatalf("offset %d op %d: Contains(%d) = %v; reference %v", offset, i, b, got, want)
				}
			}
		}
	}
	if !wrapLookup || !wrapAccess || !wrapReset {
		t.Errorf("the sequence must wrap the clock in a Lookup (%v), an Access (%v) and a Reset (%v)", wrapLookup, wrapAccess, wrapReset)
	}
}

// TestBlockOutsideTagRange: a negative block, or one whose tag needs more
// than 32 bits, never aliases a resident line, and inserting one panics.
func TestBlockOutsideTagRange(t *testing.T) {
	c := New(4*4*64, 4, 64) // 2 set bits
	c.Access(0)
	for _, b := range []int64{-4, 1 << 34, 1<<34 | 4} {
		if c.Contains(b) || c.Lookup(b) {
			t.Errorf("block %#x must not hit a line holding block 0", b)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("inserting a block beyond the tag range must panic")
		}
	}()
	c.Access(1 << 34)
}

func TestSets(t *testing.T) {
	for _, g := range []struct {
		size, block int64
		ways        int
		ok          bool
	}{
		{64 << 10, 64, 4, true},
		{1 << 20, 64, 4, true},
		{3 * 64 * 4, 64, 3, true}, // 3 ways, 4 sets
		{0, 64, 4, false},
		{64 << 10, 64, 3, false}, // 341 sets
		{64 << 10, 64, 0, false},
		{64 << 10, 64, -1, false},
		{64 << 10, 0, 4, false},
		{64 << 10, 64, math.MaxInt, false},
	} {
		_, err := Sets(g.size, g.ways, g.block)
		if (err == nil) != g.ok {
			t.Errorf("Sets(%d, %d, %d) = %v, want ok=%v", g.size, g.ways, g.block, err, g.ok)
		}
	}
}

func TestHierarchyResetKeepsOrRebuilds(t *testing.T) {
	var h Hierarchy // the zero Hierarchy is ready for Reset
	h.Reset(1<<10, 1<<12, 4, 64, 1, 10)
	h.Fill(5)
	l2 := &h.L2.lines[0]
	h.Reset(1<<10, 1<<12, 4, 64, 2, 20)
	if h.Contains(5) || h.L1Hit != 2 || h.L2Hit != 20 {
		t.Fatal("Reset must empty both levels and take the new latencies")
	}
	if &h.L2.lines[0] != l2 {
		t.Error("Reset with an unchanged geometry must keep the line array")
	}
	h.Reset(1<<10, 1<<13, 4, 64, 1, 10)
	if len(h.L2.lines) != 1<<13/64 {
		t.Errorf("L2 has %d lines after growing to 8 KB, want %d", len(h.L2.lines), 1<<13/64)
	}
}

// BenchmarkHierarchyProbe is the cache-probe layer row on the Table 1
// hierarchy: an L1 hit, an L2 hit (with its L1 refill), and a miss in
// both levels followed by the Fill a successful coherence request makes.
func BenchmarkHierarchyProbe(b *testing.B) {
	table1 := func() *Hierarchy { return NewHierarchy(64<<10, 1<<20, 4, 64, 1, 10) }
	b.Run("l1-hit", func(b *testing.B) {
		h := table1()
		const n = 512 // half the L1
		for i := int64(0); i < n; i++ {
			h.Fill(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, miss := h.Probe(int64(i % n)); miss {
				b.Fatal("L1-resident block missed")
			}
		}
	})
	b.Run("l2-hit", func(b *testing.B) {
		h := table1()
		// Cycling 4096 blocks through the 256-set L1 puts 16 blocks on
		// each L1 set, so every probe misses L1; each L2 set holds one.
		const n = 4096
		for i := int64(0); i < n; i++ {
			h.Fill(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if lat, miss := h.Probe(int64(i % n)); miss || lat != 11 {
				b.Fatalf("want an L2 hit, got lat=%d miss=%v", lat, miss)
			}
		}
	})
	b.Run("miss-fill", func(b *testing.B) {
		h := table1()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			block := int64(i)
			if _, miss := h.Probe(block); !miss {
				b.Fatal("a never-seen block hit")
			}
			h.Fill(block)
		}
	})
}
