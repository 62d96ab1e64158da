package workloads

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// small returns fast test-scale variants of every workload (the default
// configurations are sized for the 32-core paper runs).
func small() []Workload {
	return []Workload{
		&Genome{KeysPerCPU: 4, UniqueKeys: 64, TableBits: 8, SegmentWork: 8, baseThreads: 8},
		&Genome{Resizable: true, KeysPerCPU: 4, UniqueKeys: 64, TableBits: 8, SegmentWork: 8, baseThreads: 8},
		&Intruder{PacketsPer: 4, Flows: 32, TableBits: 8, DetectWork: 8, baseThreads: 8},
		&Intruder{Opt: true, PacketsPer: 4, Flows: 32, TableBits: 8, DetectWork: 8, baseThreads: 8},
		&Intruder{Opt: true, Resizable: true, PacketsPer: 4, Flows: 32, TableBits: 8, DetectWork: 8, baseThreads: 8},
		&KMeans{PointsPer: 4, Clusters: 4, Dims: 4, baseThreads: 8},
		&Labyrinth{PathsPer: 2, GridWords: 1 << 10, MinLen: 3, RouteCost: 4, baseThreads: 8},
		&SSCA2{EdgesPer: 8, Nodes: 1 << 8, MaxDegree: 8, baseThreads: 8},
		&Vacation{OpsPer: 6, Records: 64, InsertPct: 20, TableBits: 9, InitAvail: 10, QueryWork: 8, baseThreads: 8},
		&Vacation{Opt: true, OpsPer: 6, Records: 64, InsertPct: 20, TableBits: 9, InitAvail: 10, QueryWork: 8, baseThreads: 8},
		&Vacation{Opt: true, Resizable: true, OpsPer: 6, Records: 64, InsertPct: 20, TableBits: 9, InitAvail: 10, QueryWork: 8, baseThreads: 8},
		&Yada{OpsPer: 4, MeshNodes: 32, WalkSteps: 3, RetriangulateWork: 4, baseThreads: 8},
		&Python{BatchesPerCPU: 2, BatchLen: 6, HotObjects: 3, ColdObjects: 32, HotPct: 70, DispatchWork: 4, AllocEvery: 3, RefWindow: 2, baseThreads: 8},
		&Python{Opt: true, BatchesPerCPU: 2, BatchLen: 6, HotObjects: 3, ColdObjects: 32, HotPct: 70, DispatchWork: 4, AllocEvery: 3, RefWindow: 2, baseThreads: 8},
		&Counter{OpsPerThread: 6, IncsPerTx: 2, LocalWork: 4},
	}
}

func runBundle(t *testing.T, b *Bundle, mode sim.Mode, cores int) *sim.Result {
	t.Helper()
	p := sim.DefaultParams()
	p.Cores = cores
	p.Mode = mode
	m, err := sim.New(p, b.Mem, b.Programs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAllWorkloadsVerifyAllModes is the workhorse: every kernel, under
// every conflict-handling mode, at several machine sizes, must produce a
// final memory image satisfying its atomicity invariants.
func TestAllWorkloadsVerifyAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full mode×cores verification grid; run without -short")
	}
	for _, w := range small() {
		for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
			for _, cores := range []int{1, 4, 8} {
				b := w.Build(cores, 7)
				runBundle(t, b, mode, cores)
				if err := b.Verify(b.Mem); err != nil {
					t.Errorf("%s mode=%v cores=%d: %v", w.Name(), mode, cores, err)
				}
			}
		}
	}
}

// TestWorkloadsVerifyAcrossSeeds runs the RETCON configuration over
// several input seeds — different conflict interleavings every time.
func TestWorkloadsVerifyAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed verification sweep; run without -short")
	}
	for _, w := range small() {
		for seed := int64(1); seed <= 4; seed++ {
			b := w.Build(6, seed)
			runBundle(t, b, sim.RetCon, 6)
			if err := b.Verify(b.Mem); err != nil {
				t.Errorf("%s seed=%d: %v", w.Name(), seed, err)
			}
		}
	}
}

// TestBuildDeterminism: identical seeds build identical programs and
// initial memory.
func TestBuildDeterminism(t *testing.T) {
	for _, w := range small() {
		b1 := w.Build(4, 3)
		b2 := w.Build(4, 3)
		if len(b1.Programs) != len(b2.Programs) {
			t.Fatalf("%s: program count differs", w.Name())
		}
		for i := range b1.Programs {
			p1, p2 := b1.Programs[i].Instrs, b2.Programs[i].Instrs
			if len(p1) != len(p2) {
				t.Fatalf("%s prog %d: length differs", w.Name(), i)
			}
			for j := range p1 {
				if p1[j] != p2[j] {
					t.Fatalf("%s prog %d instr %d differs: %v vs %v", w.Name(), i, j, p1[j], p2[j])
				}
			}
		}
	}
}

// TestVerifierCatchesCorruption: each verifier must reject a run whose
// shared state was tampered with (i.e. the invariants have teeth).
func TestVerifierCatchesCorruption(t *testing.T) {
	for _, w := range small() {
		b := w.Build(4, 7)
		runBundle(t, b, sim.Eager, 4)
		if err := b.Verify(b.Mem); err != nil {
			t.Fatalf("%s: clean run must verify: %v", w.Name(), err)
		}
		// Flip words until the verifier notices (some words are slack, so
		// probe several offsets within the workload's data region).
		caught := false
		for off := int64(0); off < 64 && !caught; off++ {
			addr := mem.BlockSize + off*mem.BlockSize
			if addr+8 > b.Mem.Size() {
				break
			}
			old := b.Mem.Read64(addr)
			b.Mem.Write64(addr, old+1_000_001)
			if b.Verify(b.Mem) != nil {
				caught = true
			}
			b.Mem.Write64(addr, old)
		}
		if !caught {
			t.Errorf("%s: verifier accepted 64 distinct corruptions", w.Name())
		}
		// An out-of-image value in any word (a corrupt link) must fail
		// verification with an error, never panic the verifier.
		for _, bad := range []int64{1 << 40, -8} {
			caught := false
			for addr := int64(0); addr+mem.WordSize <= b.Mem.Size(); addr += mem.WordSize {
				old := b.Mem.Read64(addr)
				b.Mem.Write64(addr, bad)
				panicked, err := verifyRecover(b)
				b.Mem.Write64(addr, old)
				if panicked != nil {
					t.Fatalf("%s: verifier panicked with %d at word %#x: %v", w.Name(), bad, addr, panicked)
				}
				caught = caught || err != nil
			}
			if !caught {
				t.Errorf("%s: verifier accepted %d in every word", w.Name(), bad)
			}
		}
	}
}

// verifyRecover runs the bundle's verifier on its image and returns the
// verdict, or the panic value when the verifier panics.
func verifyRecover(b *Bundle) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, b.Verify(b.Mem)
}

func TestRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, w := range All() {
		if w.Name() == "" || w.Description() == "" {
			t.Errorf("workload with empty name/description: %T", w)
		}
		if names[w.Name()] {
			t.Errorf("duplicate workload name %q", w.Name())
		}
		names[w.Name()] = true
	}
	for _, n := range PaperNames() {
		if _, err := Lookup(n); err != nil {
			t.Errorf("paper workload %q missing: %v", n, err)
		}
	}
	for _, n := range Figure1Names() {
		if _, err := Lookup(n); err != nil {
			t.Errorf("figure 1 workload %q missing: %v", n, err)
		}
	}
	if _, err := Lookup("no-such-workload"); err == nil {
		t.Error("unknown lookup must fail")
	}
	if len(PaperNames()) != 14 {
		t.Errorf("paper variant count = %d, want 14", len(PaperNames()))
	}
}

func TestSplitWork(t *testing.T) {
	items := []int64{1, 2, 3, 4, 5, 6, 7}
	parts := splitWork(items, 3)
	if len(parts) != 3 {
		t.Fatal("wrong part count")
	}
	var total int
	for _, p := range parts {
		total += len(p)
	}
	if total != len(items) {
		t.Errorf("split lost items: %d of %d", total, len(items))
	}
	if len(parts[0]) != 3 || len(parts[1]) != 2 || len(parts[2]) != 2 {
		t.Errorf("unbalanced split: %d/%d/%d", len(parts[0]), len(parts[1]), len(parts[2]))
	}
}

func TestDistinct(t *testing.T) {
	got := distinct([]int64{3, 1, 3, 2, 1})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("distinct = %v", got)
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := newRng(9), newRng(9)
	for i := 0; i < 100; i++ {
		if a.intn(1000) != b.intn(1000) {
			t.Fatal("rng not deterministic")
		}
	}
	c := newRng(0) // zero seed must still work
	_ = c.intn(10)
}

func TestDescriptionsMentionVariant(t *testing.T) {
	w, _ := Lookup("genome-sz")
	if !strings.Contains(w.Description(), "resizable") {
		t.Error("genome-sz description must mention the resizable table")
	}
}

// TestHashTableResizePath forces the resize threshold to trip and checks
// the amortized-growth model stays correct under concurrency.
func TestHashTableResizePath(t *testing.T) {
	w := &Genome{Resizable: true, KeysPerCPU: 8, UniqueKeys: 48, TableBits: 8, SegmentWork: 4, baseThreads: 8}
	b := w.Build(8, 3)
	// Shrink the threshold so several resizes trigger mid-run.
	ht := findHeaderThreshold(b)
	b.Mem.Write64(ht, 8)
	for _, mode := range []sim.Mode{sim.Eager, sim.RetCon} {
		b2 := w.Build(8, 3)
		b2.Mem.Write64(findHeaderThreshold(b2), 8)
		runBundle(t, b2, mode, 8)
		if err := b2.Verify(b2.Mem); err != nil {
			t.Errorf("mode %v with resizes: %v", mode, err)
		}
	}
	_ = ht
}

// findHeaderThreshold locates the genome table's threshold word: it is the
// second word of the header block, which Build places directly after the
// slot array. This mirrors newHashTable's layout.
func findHeaderThreshold(b *Bundle) int64 {
	// Slot array starts at the first block after the reserved null block.
	slotBase := int64(mem.BlockSize)
	slots := int64(1) << 8
	return slotBase + slots*8 + 8
}
