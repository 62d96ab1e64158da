package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Genome models STAMP genome's conflict-relevant phase: deduplicating gene
// segments by inserting them into a shared hash set. Threads insert keys
// drawn (with duplicates) from a segment pool; each insert is one
// transaction preceded by private "segment processing" busy work.
//
// The resizable variant (genome-sz) adds the shared size field that every
// successful insert increments — the auxiliary-data conflict RETCON
// repairs.
type Genome struct {
	Resizable   bool
	KeysPerCPU  int   // inserts per thread at 32 threads (total work is fixed)
	UniqueKeys  int64 // segment pool size
	TableBits   int64
	SegmentWork int64 // busy-loop iterations modeling segment processing
	baseThreads int
}

// DefaultGenome returns the fixed-size-table variant.
func DefaultGenome() *Genome {
	return &Genome{KeysPerCPU: 48, UniqueKeys: 512, TableBits: 11, SegmentWork: 300, baseThreads: 32}
}

// DefaultGenomeSz returns the resizable-table variant (genome-sz).
func DefaultGenomeSz() *Genome {
	g := DefaultGenome()
	g.Resizable = true
	return g
}

// Name implements Workload.
func (w *Genome) Name() string {
	if w.Resizable {
		return "genome-sz"
	}
	return "genome"
}

// Description implements Workload.
func (w *Genome) Description() string {
	d := "gene-segment deduplication into a shared hash set (STAMP genome)"
	if w.Resizable {
		d += ", resizable table (shared size field)"
	}
	return d
}

// totalOps returns the thread-count-independent total work.
func (w *Genome) totalOps() int {
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	return w.KeysPerCPU * base
}

// Build implements Workload.
func (w *Genome) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	total := w.totalOps()
	keys := make([]int64, total)
	for i := range keys {
		keys[i] = 1 + r.intn(w.UniqueKeys) // nonzero keys
	}

	img := mem.NewImage()
	ht := newHashTable(img, w.TableBits, w.Resizable, int64(w.UniqueKeys)*4)
	ht.capacityCheck(len(distinct(keys)))
	work := splitWork(keys, threads)
	bases := allocWorkArrays(img, work)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB)
		b.TxBegin()
		// Segment processing happens inside the coarse transaction, as in
		// STAMP's naive-programmer transactions; the insert comes last.
		b.BusyLoop(rB, w.SegmentWork, "segwork")
		ht.emitInsert(b, "ins", rA, rC, rD, rE, rF, rG)
		b.TxCommit()
		epilogue(b)
		progs[t] = b.MustAssemble()
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta: map[string]int64{
			"inserts":  int64(total),
			"distinct": int64(len(distinct(keys))),
		},
		Verify: func(img *mem.Image) error {
			if err := ht.verify(img, w.Name(), keys); err != nil {
				return err
			}
			return nil
		},
	}
}
