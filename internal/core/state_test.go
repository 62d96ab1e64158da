package core

import (
	"testing"

	"repro/internal/mem"
)

func testState(ivb, cons, ssb int) (*State, *mem.Image) {
	img := mem.NewImage()
	img.AllocBlocks(1 << 16) // backs the raw block numbers some tests track
	return NewState(Config{IVBEntries: ivb, ConstraintEntries: cons, SSBEntries: ssb}), img
}

func TestTrackSnapshotsBlock(t *testing.T) {
	s, img := testState(16, 16, 32)
	base := img.AllocBlocks(mem.BlockSize)
	for i := int64(0); i < mem.WordsPerBlock; i++ {
		img.Write64(base+i*8, 100+i)
	}
	e, ok := s.Track(mem.BlockOf(base), img)
	if !ok {
		t.Fatal("Track failed with empty IVB")
	}
	for i := int64(0); i < mem.WordsPerBlock; i++ {
		if e.Word(base+i*8) != 100+i {
			t.Fatalf("word %d snapshot = %d, want %d", i, e.Word(base+i*8), 100+i)
		}
	}
	// Tracking again returns the same entry.
	e2, ok := s.Track(mem.BlockOf(base), img)
	if !ok || e2 != e {
		t.Error("re-Track must return the existing entry")
	}
}

func TestIVBCapacity(t *testing.T) {
	s, img := testState(2, 16, 32)
	for i := int64(0); i < 2; i++ {
		if _, ok := s.Track(10+i, img); !ok {
			t.Fatalf("Track %d should fit", i)
		}
	}
	if _, ok := s.Track(99, img); ok {
		t.Error("Track beyond capacity must fail")
	}
	if s.Tracked(10) == nil || s.Tracked(99) != nil {
		t.Error("Tracked lookups inconsistent")
	}
}

func TestMarkLost(t *testing.T) {
	s, img := testState(16, 16, 32)
	s.Track(5, img)
	if s.MarkLost(6) {
		t.Error("MarkLost on untracked block must report false")
	}
	if !s.MarkLost(5) {
		t.Error("MarkLost on tracked block must report true")
	}
	if !s.Tracked(5).Lost {
		t.Error("Lost flag must be set")
	}
}

func TestConstraintBufferCapacity(t *testing.T) {
	s, _ := testState(16, 2, 32)
	if !s.Constrain(0x100, Point(1)) || !s.Constrain(0x108, Point(2)) {
		t.Fatal("first two constraints should fit")
	}
	if s.Constrain(0x110, Point(3)) {
		t.Error("third constraint word must overflow")
	}
	// Re-constraining an existing word intersects and does not overflow.
	if !s.Constrain(0x100, Interval{Lo: 0, Hi: 5}) {
		t.Error("constraining an existing word must succeed when full")
	}
	if got, ok := s.ConstraintOn(0x100); !ok || got.Lo != 1 || got.Hi != 1 {
		t.Errorf("intersection = %v, want [1,1]", got)
	}
	// Full constraints are dropped without consuming an entry.
	if !s.Constrain(0x118, Full()) {
		t.Error("full interval must be accepted for free")
	}
}

func TestSSBMergeAndCapacity(t *testing.T) {
	s, _ := testState(16, 16, 2)
	if !s.PutStore(0x200, 7, SymVal{}) {
		t.Fatal("first store should fit")
	}
	if !s.PutStore(0x208, 8, Sym(0x200)) {
		t.Fatal("second store should fit")
	}
	if s.PutStore(0x210, 9, SymVal{}) {
		t.Error("third word must overflow the SSB")
	}
	// Overwriting an existing word succeeds when full.
	if !s.PutStore(0x200, 17, SymVal{}) {
		t.Error("overwrite must succeed when full")
	}
	if s.Store(0x200).Val != 17 {
		t.Error("overwrite must update the value")
	}
}

func TestPutStoreSetsWrittenBit(t *testing.T) {
	s, img := testState(16, 16, 32)
	base := img.AllocBlocks(mem.BlockSize)
	s.Track(mem.BlockOf(base), img)
	s.PutStore(base, 1, SymVal{})
	if !s.Tracked(mem.BlockOf(base)).Written {
		t.Error("store to tracked block must set the Written bit (upgrade optimization)")
	}
}

func TestEvalAndConstraintsAtCommit(t *testing.T) {
	s, img := testState(16, 16, 32)
	base := img.AllocBlocks(mem.BlockSize)
	img.Write64(base, 10)
	e, _ := s.Track(mem.BlockOf(base), img)

	sym := Sym(base).AddConst(2)
	if got := s.EvalSym(sym); got != 12 {
		t.Fatalf("EvalSym = %d, want 12", got)
	}
	// Constraint satisfied by the initial value.
	s.Constrain(base, Interval{Lo: 0, Hi: 15})
	if w := s.CheckConstraints(); w != -1 {
		t.Fatalf("constraints should hold, got violation at %#x", w)
	}
	// A remote update within bounds still validates; outside violates.
	e.SetWord(base, 14)
	if w := s.CheckConstraints(); w != -1 {
		t.Fatal("value 14 is in [0,15], must validate")
	}
	if got := s.EvalSym(sym); got != 16 {
		t.Fatalf("repair must use the new root value: got %d, want 16", got)
	}
	e.SetWord(base, 99)
	if w := s.CheckConstraints(); w != base {
		t.Fatalf("value 99 violates [0,15]; got %#x", w)
	}
}

func TestConstrainEqualInitial(t *testing.T) {
	s, img := testState(16, 16, 32)
	base := img.AllocBlocks(mem.BlockSize)
	img.Write64(base+8, 42)
	s.Track(mem.BlockOf(base), img)
	if !s.ConstrainEqualInitial(base + 8) {
		t.Fatal("equality pin must succeed")
	}
	if got, ok := s.ConstraintOn(base + 8); !ok || got.Lo != 42 || got.Hi != 42 {
		t.Errorf("equality constraint = %v, want [42,42]", got)
	}
	// Pinning an untracked word is a no-op success.
	if !s.ConstrainEqualInitial(0x7000) {
		t.Error("pinning untracked word must be a no-op success")
	}
}

func TestStatsAndReset(t *testing.T) {
	s, img := testState(16, 16, 32)
	b1 := img.AllocBlocks(mem.BlockSize)
	b2 := img.AllocBlocks(mem.BlockSize)
	s.Track(mem.BlockOf(b1), img)
	s.Track(mem.BlockOf(b2), img)
	s.MarkLost(mem.BlockOf(b1))
	s.PutStore(b1, 5, Sym(b1))
	s.Constrain(b2, Point(0))
	s.SetReg(3, Sym(b1)) // root lost => counted as repaired
	s.SetReg(4, Sym(b2)) // root not lost => not counted

	st := s.Stats()
	if st.BlocksTracked != 2 || st.BlocksLost != 1 || st.PrivateStores != 1 ||
		st.ConstraintAddrs != 1 || st.SymRegsRepaired != 1 {
		t.Errorf("stats = %+v", st)
	}

	s.Reset()
	if !s.Empty() || s.Regs[3].Valid {
		t.Error("Reset must clear all symbolic state")
	}
}
