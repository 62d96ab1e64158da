package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// SSCA2 models STAMP ssca2's graph-construction kernel: tiny transactions
// append an edge to a random node's adjacency list (read the node's degree
// counter, store the edge at the indexed slot, bump the counter). The node
// arrays are much larger than the private caches and accesses are random,
// so the workload is memory-bound — conflicts are rare, and scaling is
// limited by memory bandwidth, matching the paper's "bad caching behavior"
// diagnosis.
type SSCA2 struct {
	EdgesPer    int   // edge insertions per thread at 32 threads
	Nodes       int64 // power of two
	MaxDegree   int64
	baseThreads int
}

// DefaultSSCA2 returns the evaluation configuration.
func DefaultSSCA2() *SSCA2 {
	return &SSCA2{EdgesPer: 160, Nodes: 1 << 15, MaxDegree: 8, baseThreads: 32}
}

// Name implements Workload.
func (w *SSCA2) Name() string { return "ssca2" }

// Description implements Workload.
func (w *SSCA2) Description() string {
	return "graph kernel: transactional edge append to random nodes over cache-busting arrays (STAMP ssca2)"
}

// Build implements Workload.
func (w *SSCA2) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	total := w.EdgesPer * base

	img := mem.NewImage()
	// Degree counters: one word per node, spread one per block so random
	// accesses miss (the paper's bad cache behavior).
	degBase := img.AllocBlocks(w.Nodes * 8)
	edgeBase := img.AllocBlocks(w.Nodes * w.MaxDegree * 8)

	// Work items: target node per edge insertion (bounded per-node degree
	// so the edge arrays never overflow).
	nodeCount := make(map[int64]int64)
	items := make([]int64, 0, total)
	for len(items) < total {
		v := r.intn(w.Nodes)
		if nodeCount[v] >= w.MaxDegree {
			continue
		}
		nodeCount[v]++
		items = append(items, v)
	}
	work := splitWork(items, threads)
	bases := allocWorkArrays(img, work)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB) // rA = node id

		b.TxBegin()
		b.Shli(rB, rA, 3)
		b.Addi(rB, rB, degBase)
		b.Ld(rC, rB, 0, 8) // degree
		// edge slot = edgeBase + (node*MaxDegree + degree)*8
		b.Muli(rD, rA, w.MaxDegree)
		b.Add(rD, rD, rC)
		b.Shli(rD, rD, 3)
		b.Addi(rD, rD, edgeBase)
		b.Addi(rE, rA, 1) // edge payload: source id + 1 (nonzero)
		b.St(rE, rD, 0, 8)
		b.Addi(rC, rC, 1)
		b.St(rC, rB, 0, 8)
		b.TxCommit()
		epilogue(b)
		progs[t] = b.MustAssemble()
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     map[string]int64{"edges": int64(total)},
		Verify: func(img *mem.Image) error {
			var sum int64
			for v := int64(0); v < w.Nodes; v++ {
				deg := img.Read64(degBase + v*8)
				if deg != nodeCount[v] {
					return verifyErr(w.Name(), "node %d degree = %d, want %d", v, deg, nodeCount[v])
				}
				for k := int64(0); k < deg; k++ {
					if got := img.Read64(edgeBase + (v*w.MaxDegree+k)*8); got != v+1 {
						return verifyErr(w.Name(), "node %d edge %d = %d, want %d (torn append)", v, k, got, v+1)
					}
				}
				sum += deg
			}
			if sum != int64(total) {
				return verifyErr(w.Name(), "total degree %d, want %d", sum, total)
			}
			return nil
		},
	}
}
