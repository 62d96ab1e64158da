package coherence

import (
	"math"
	"testing"
	"unsafe"
)

func lat() Latencies { return Latencies{Hop: 20, DRAM: 100} }

func TestColdReadGoesToDRAM(t *testing.T) {
	d := New(4, 1024, lat())
	if got := d.ReadTargets(0, 5); got != NoOwner {
		t.Fatal("cold block has no owner to downgrade")
	}
	l := d.ApplyRead(0, 5, 0)
	if l != 2*20+100 {
		t.Errorf("cold read latency = %d, want 140", l)
	}
	e := d.Entry(5)
	if e.State != Shared || !e.HasSharer(0) {
		t.Errorf("entry after read: %+v", e)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := New(4, 1024, lat())
	d.ApplyRead(0, 5, 0)
	d.ApplyRead(1, 5, 0)
	targets := d.WriteTargets(2, 5, nil)
	if len(targets) != 2 {
		t.Fatalf("write targets = %v, want cores 0 and 1", targets)
	}
	l := d.ApplyWrite(2, 5, 0)
	if l != 2*20+20 { // dir roundtrip + parallel invalidations; data from... sharers invalidated, no DRAM since copies existed
		t.Errorf("write latency = %d, want 60", l)
	}
	e := d.Entry(5)
	if e.State != Modified || e.Owner != 2 || e.Sharers != 1<<2 {
		t.Errorf("entry after write: %+v", e)
	}
}

func TestReadDowngradesOwner(t *testing.T) {
	d := New(4, 1024, lat())
	d.ApplyWrite(1, 7, 0)
	if got := d.ReadTargets(0, 7); got != 1 {
		t.Fatalf("read target = %d, want owner 1", got)
	}
	l := d.ApplyRead(0, 7, 0)
	if l != 2*20+20 { // owner forward
		t.Errorf("forwarded read latency = %d, want 60", l)
	}
	e := d.Entry(7)
	if e.State != Shared || e.Owner != NoOwner || !e.HasSharer(0) || !e.HasSharer(1) {
		t.Errorf("entry after downgrade: %+v", e)
	}
}

func TestSilentUpgradeLatency(t *testing.T) {
	d := New(4, 1024, lat())
	d.ApplyRead(0, 9, 0)
	// Sole sharer upgrading: no invalidations, no DRAM.
	l := d.ApplyWrite(0, 9, 0)
	if l != 2*20 {
		t.Errorf("upgrade latency = %d, want 40", l)
	}
}

func TestOwnWriteHit(t *testing.T) {
	d := New(4, 1024, lat())
	d.ApplyWrite(0, 9, 0)
	if targets := d.WriteTargets(0, 9, nil); len(targets) != 0 {
		t.Errorf("owner re-write has no targets, got %v", targets)
	}
}

func TestDRAMQueuing(t *testing.T) {
	l := lat()
	l.DRAMOccupancy = 16
	d := New(4, 1024, l)
	// Two cold reads of different blocks at the same cycle: the second
	// queues behind the first at the memory controller.
	l1 := d.ApplyRead(0, 1, 100)
	l2 := d.ApplyRead(1, 2, 100)
	if l2 <= l1 {
		t.Errorf("queued access must be slower: %d then %d", l1, l2)
	}
	if l2-l1 != 16 {
		t.Errorf("queue delay = %d, want one occupancy slot (16)", l2-l1)
	}
	if d.DRAMAccesses != 2 || d.DRAMQueue != 16 {
		t.Errorf("stats: accesses=%d queue=%d", d.DRAMAccesses, d.DRAMQueue)
	}
	// A later access after the controller drains sees no queueing.
	l3 := d.ApplyRead(2, 3, 1000)
	if l3 != l1 {
		t.Errorf("drained access latency = %d, want %d", l3, l1)
	}
}

func TestPeek(t *testing.T) {
	d := New(4, 1024, lat())
	if _, ok := d.Peek(42); ok {
		t.Error("Peek must not create entries")
	}
	d.ApplyRead(0, 42, 0)
	if _, ok := d.Peek(42); !ok {
		t.Error("Peek must find existing entries")
	}
}

func TestDirectoryBounds(t *testing.T) {
	d := New(4, 8, lat())
	if d.Blocks() != 8 {
		t.Fatalf("Blocks = %d, want 8", d.Blocks())
	}
	d.Entry(7) // last valid block
	for _, block := range []int64{8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Entry(%d) on an 8-block directory must panic", block)
				}
			}()
			d.Entry(block)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Peek(%d) on an 8-block directory must panic", block)
				}
			}()
			d.Peek(block)
		}()
	}
}

func TestDirectoryReset(t *testing.T) {
	d := New(4, 16, lat())
	d.ApplyWrite(2, 5, 100)
	if e, ok := d.Peek(5); !ok || e.State != Modified {
		t.Fatal("setup: block 5 must be Modified")
	}
	if d.DRAMAccesses == 0 {
		t.Fatal("setup: the write must have counted a DRAM access")
	}
	d.Reset(4, 16, lat())
	if _, ok := d.Peek(5); ok {
		t.Error("Reset must invalidate every entry")
	}
	if e := d.Entry(5); e.State != Invalid || e.Owner != NoOwner || e.Sharers != 0 {
		t.Errorf("entry after Reset: %+v, want pristine Invalid", e)
	}
	if d.DRAMAccesses != 0 || d.DRAMQueue != 0 {
		t.Error("Reset must clear the memory-controller counters")
	}
	// Reset grows the directory for a larger image.
	d.Reset(4, 64, lat())
	if d.Blocks() != 64 {
		t.Errorf("Blocks after growing Reset = %d, want 64", d.Blocks())
	}
	d.Entry(63)
}

func TestDirectoryResetShrinks(t *testing.T) {
	d := New(4, 64, lat())
	d.ApplyWrite(1, 50, 0)
	// Reset for a smaller image: the backing array is grow-only, but the
	// logical bound must shrink with the image so out-of-image accesses
	// still fail loudly.
	d.Reset(4, 16, lat())
	if d.Blocks() != 16 {
		t.Errorf("Blocks after shrinking Reset = %d, want 16", d.Blocks())
	}
	defer func() {
		if recover() == nil {
			t.Error("Entry(50) after a shrink to 16 blocks must panic")
		}
	}()
	d.Entry(50)
}

// TestDirectoryEpochWrap: the Reset that wraps the uint32 epoch scrubs
// the entry array, so an entry written in an earlier run can never alias
// the restarted epoch and reads Invalid with NoOwner afterwards.
func TestDirectoryEpochWrap(t *testing.T) {
	d := New(4, 16, lat())
	d.epoch = math.MaxUint32 - 1
	d.Reset(4, 16, lat()) // epoch MaxUint32
	d.ApplyWrite(2, 5, 0)
	d.ApplyRead(1, 6, 0)
	d.ApplyRead(3, 6, 0)
	if e := d.Entry(5); e.State != Modified || e.Owner != 2 {
		t.Fatalf("setup: entry 5 = %+v, want Modified by core 2", *e)
	}
	// A stale entry stamped with epoch 1 would alias the wrapped epoch if
	// the scrub were skipped.
	d.entries[9] = Entry{State: Modified, Owner: 3, Sharers: 1 << 3, epoch: 1}
	d.Reset(4, 16, lat())
	if d.epoch != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", d.epoch)
	}
	for block := int64(0); block < 16; block++ {
		if _, ok := d.Peek(block); ok {
			t.Errorf("Peek(%d) after the wrapping Reset found a live entry", block)
		}
		if e := d.Entry(block); e.State != Invalid || e.Owner != NoOwner || e.Sharers != 0 {
			t.Errorf("Entry(%d) after the wrapping Reset = %+v, want Invalid with NoOwner", block, *e)
		}
	}
}

// TestEntrySize pins the directory entry at 16 bytes: a python_opt image
// has about 69K blocks, and the entry array is walked by every request.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 16 {
		t.Errorf("Entry is %d bytes, want 16", n)
	}
}

// BenchmarkDirectoryRequest is the directory-request layer row: the
// conflict-resolution targets plus the applied state change, for three
// reads to one write from 32 cores over a python_opt-sized image (69,287
// blocks at 32 cores).
func BenchmarkDirectoryRequest(b *testing.B) {
	const cores, blocks = 32, 69287
	d := New(cores, blocks, Latencies{Hop: 20, DRAM: 100, DRAMOccupancy: 12})
	var targets []int
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c, block := int(x>>59), int64(x>>32)%blocks
		if x>>40&3 == 0 {
			targets = d.WriteTargets(c, block, targets[:0])
			d.ApplyWrite(c, block, int64(i))
		} else {
			_ = d.ReadTargets(c, block)
			d.ApplyRead(c, block, int64(i))
		}
	}
	_ = targets
}
