package mem

import (
	"testing"
	"testing/quick"
)

func TestBlockGeometry(t *testing.T) {
	if BlockSize != 64 || WordsPerBlock != 8 {
		t.Fatal("Table 1 geometry changed")
	}
	if BlockOf(0) != 0 || BlockOf(63) != 0 || BlockOf(64) != 1 {
		t.Error("BlockOf broken")
	}
	if BlockBase(130) != 128 || WordAddr(13) != 8 {
		t.Error("BlockBase/WordAddr broken")
	}
}

func TestAllocAlignment(t *testing.T) {
	m := NewImage()
	a := m.Alloc(10, 8)
	if a%8 != 0 {
		t.Errorf("Alloc returned unaligned %d", a)
	}
	b := m.AllocBlocks(100)
	if b%BlockSize != 0 {
		t.Errorf("AllocBlocks returned unaligned %d", b)
	}
	if b <= a {
		t.Error("allocations must not overlap")
	}
	if a == 0 || b == 0 {
		t.Error("address 0 must never be allocated (null sentinel)")
	}
}

func TestAllocGrowsImage(t *testing.T) {
	m := NewImage()
	if m.Size() != BlockSize || m.Blocks() != 1 {
		t.Fatalf("fresh image: %d bytes, %d blocks; want only the reserved block", m.Size(), m.Blocks())
	}
	a := m.Alloc(10, 8)
	m.Write64(a, 41)
	before := m.Clone()
	// Each allocation extends the image to its break rounded up to a
	// whole block, and no further.
	for _, n := range []int64{1, BlockSize - 1, BlockSize, 3*BlockSize + 5, 1 << 12, 1 << 16} {
		prev := m.Size()
		base := m.Alloc(n, 8)
		end := (base + n + BlockSize - 1) &^ (BlockSize - 1)
		if m.Size() != end || m.Blocks() != end/BlockSize {
			t.Fatalf("after Alloc(%d) at %d: %d bytes, %d blocks; want %d bytes", n, base, m.Size(), m.Blocks(), end)
		}
		if m.Read64(a) != 41 {
			t.Fatal("growth lost an earlier write")
		}
		// The bytes growth added read as zero; dirty them for the next round.
		for w := prev; w < end; w += WordSize {
			if m.Read64(w) != 0 {
				t.Fatalf("after Alloc(%d): word %#x = %#x, want 0", n, w, m.Read64(w))
			}
			m.Write64(w, -1)
		}
	}
	if before.Equal(m) {
		t.Fatal("a grown image must not equal its smaller clone")
	}
	if before.Size() != BlockSize*2 || before.Read64(a) != 41 {
		t.Fatal("growing an image changed an earlier clone")
	}
	grown := m.Clone()
	if !grown.Equal(m) || grown.Read64(a) != 41 {
		t.Fatal("a clone of a grown image must equal it")
	}
	defer func() {
		if recover() == nil {
			t.Error("an access at Size() must panic")
		}
	}()
	m.Read64(m.Size())
}

func TestAllocBadAlign(t *testing.T) {
	m := NewImage()
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two alignment must panic")
		}
	}()
	m.Alloc(8, 3)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := NewImage()
	base := m.AllocBlocks(256)
	f := func(off uint8, v int64) bool {
		addr := base + int64(off&^7)
		for _, size := range []uint8{1, 2, 4, 8} {
			m.WriteInt(addr, size, v)
			got := m.ReadInt(addr, size)
			var want int64
			switch size {
			case 1:
				want = v & 0xFF
			case 2:
				want = v & 0xFFFF
			case 4:
				want = v & 0xFFFFFFFF
			case 8:
				want = v
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubWordIndependence(t *testing.T) {
	m := NewImage()
	addr := m.AllocBlocks(WordSize)
	m.Write64(addr, -1)
	m.WriteInt(addr+2, 2, 0)
	if got := m.Read64(addr); got != -1^(0xFFFF<<16) {
		t.Errorf("sub-word write clobbered neighbors: %#x", uint64(got))
	}
}

func TestReadBlockWords(t *testing.T) {
	m := NewImage()
	base := m.AllocBlocks(BlockSize)
	for i := int64(0); i < WordsPerBlock; i++ {
		m.Write64(base+i*8, i*11)
	}
	var words [WordsPerBlock]int64
	m.ReadBlockWords(base+24, &words) // any address within the block
	for i := int64(0); i < WordsPerBlock; i++ {
		if words[i] != i*11 {
			t.Fatalf("word %d = %d, want %d", i, words[i], i*11)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewImage()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range read must panic")
		}
	}()
	m.Read64(m.Size())
}

func TestEqualAndDiffWord(t *testing.T) {
	a, b := NewImage(), NewImage()
	a.AllocBlocks(1 << 12)
	b.AllocBlocks(1 << 12)
	if !a.Equal(b) || a.DiffWord(b) != -1 {
		t.Fatal("fresh images must be equal")
	}
	b.Write64(0x40, 7)
	if a.Equal(b) {
		t.Fatal("differing images must not be equal")
	}
	if w := a.DiffWord(b); w != 0x40 {
		t.Fatalf("DiffWord = %#x, want 0x40", w)
	}
	if a.Equal(NewImage()) {
		t.Fatal("different sizes must not be equal")
	}
}

func TestBlocks(t *testing.T) {
	m := NewImage()
	m.AllocBlocks(1<<12 - BlockSize)
	if got := m.Blocks(); got != (1<<12)/BlockSize {
		t.Errorf("Blocks = %d, want %d", got, (1<<12)/BlockSize)
	}
	if m.Size() != m.Blocks()*BlockSize {
		t.Errorf("image size %d is not a whole number of blocks", m.Size())
	}
	// Odd layouts round up to whole blocks so every byte lies in a valid
	// block (the dense directory is sized by Blocks).
	odd := NewImage()
	odd.Alloc(2*BlockSize+1, 1)
	if odd.Blocks() != 4 || odd.Size() != 4*BlockSize {
		t.Errorf("odd image: %d blocks, %d bytes; want 4 blocks of %d", odd.Blocks(), odd.Size(), BlockSize)
	}
	// An image with nothing allocated still reserves block 0.
	tiny := NewImage()
	if tiny.Blocks() != 1 {
		t.Errorf("empty image has %d blocks, want 1", tiny.Blocks())
	}
}

func TestClone(t *testing.T) {
	m := NewImage()
	a := m.AllocBlocks(16)
	m.Write64(a, 7)
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatal("a clone must equal its original")
	}
	c.Write64(a, 9)
	if m.Read64(a) != 7 {
		t.Fatal("writing a clone changed the original")
	}
	// The clone continues the original's allocation break.
	if got, want := c.AllocBlocks(8), m.AllocBlocks(8); got != want {
		t.Errorf("clone allocated at %#x, original at %#x", got, want)
	}
}
