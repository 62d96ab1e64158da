package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Yada models STAMP yada's Delaunay mesh refinement: transactions traverse
// a shared linked mesh from a work-item element and splice in new elements,
// rewriting neighbor links. The contended values are the link pointers
// themselves — they feed address computation, so neither value-based
// validation nor symbolic repair can save a transaction whose neighborhood
// changed (§5.4: "the data elements being operated on are central to the
// dataflow of the entire transaction").
type Yada struct {
	OpsPer            int   // refinements per thread at 32 threads
	MeshNodes         int64 // initial circular mesh size
	WalkSteps         int64 // pointer-chase length per refinement
	RetriangulateWork int64
	baseThreads       int
}

// DefaultYada returns the evaluation configuration.
func DefaultYada() *Yada {
	return &Yada{OpsPer: 24, MeshNodes: 192, WalkSteps: 5, RetriangulateWork: 16, baseThreads: 32}
}

// Name implements Workload.
func (w *Yada) Name() string { return "yada" }

// Description implements Workload.
func (w *Yada) Description() string {
	return "Delaunay mesh refinement: pointer-chasing traversal and splice of a shared linked mesh (STAMP yada)"
}

// Mesh node layout (one block per node): [next, data].
const (
	ynNext = 0
	ynData = 8
)

// Build implements Workload.
func (w *Yada) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	total := w.OpsPer * base

	img := mem.NewImage()
	nodeBase := img.AllocBlocks(w.MeshNodes * mem.BlockSize)
	// Circular singly-linked mesh.
	for i := int64(0); i < w.MeshNodes; i++ {
		next := nodeBase + ((i+1)%w.MeshNodes)*mem.BlockSize
		img.Write64(nodeBase+i*mem.BlockSize+ynNext, next)
		img.Write64(nodeBase+i*mem.BlockSize+ynData, i+1)
	}

	// Work item = starting node address.
	items := make([]int64, total)
	for i := range items {
		items[i] = nodeBase + r.intn(w.MeshNodes)*mem.BlockSize
	}
	work := splitWork(items, threads)
	bases := allocWorkArrays(img, work)

	// Per-thread pools for spliced-in elements.
	pools := make([]int64, threads)
	for t := range pools {
		n := int64(len(work[t]))
		if n == 0 {
			n = 1
		}
		pools[t] = img.AllocBlocks(n * mem.BlockSize)
	}

	const rPool = isa.Reg(21)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		b.Li(rPool, 0)
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB) // rA = start node

		// New element address (private pool), claimed before the tx so a
		// retry reuses the same element.
		b.Muli(rG, rPool, mem.BlockSize)
		b.Addi(rG, rG, pools[t])
		b.Addi(rPool, rPool, 1)

		b.TxBegin()
		// Traverse the cavity: chase next pointers.
		b.Li(rB, 0)
		b.Label("chase")
		b.Ld(rA, rA, ynNext, 8)
		b.Addi(rB, rB, 1)
		b.Li(rC, w.WalkSteps)
		b.Blt(rB, rC, "chase")
		// Retriangulation work (private).
		if w.RetriangulateWork > 0 {
			b.BusyLoop(rD, w.RetriangulateWork, "retri")
		}
		// Splice the new element after rA.
		b.Ld(rC, rA, ynNext, 8)
		b.St(rG, rA, ynNext, 8)
		b.St(rC, rG, ynNext, 8)
		b.Li(rD, 1)
		b.St(rD, rG, ynData, 8)
		b.TxCommit()
		epilogue(b)
		progs[t] = b.MustAssemble()
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     map[string]int64{"ops": int64(total), "meshNodes": w.MeshNodes},
		Verify: func(img *mem.Image) error {
			// The circular list must contain exactly the initial nodes plus
			// every spliced element: lost or torn splices break the count.
			want := w.MeshNodes + int64(total)
			start := nodeBase
			cur := start
			var count int64
			for {
				count++
				if count > want+1 {
					return verifyErr(w.Name(), "mesh walk exceeded %d nodes (broken splice created a short cycle)", want)
				}
				cur = img.Read64(cur + ynNext)
				if cur == 0 {
					return verifyErr(w.Name(), "mesh walk hit a nil link after %d nodes (torn splice)", count)
				}
				if !inImage(img, cur, ynNext+mem.WordSize) {
					return verifyErr(w.Name(), "mesh link %#x points outside the image", cur)
				}
				if cur == start {
					break
				}
			}
			if count != want {
				return verifyErr(w.Name(), "mesh has %d nodes, want %d (lost splices)", count, want)
			}
			return nil
		},
	}
}
