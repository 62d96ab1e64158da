package cache

import "testing"

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
