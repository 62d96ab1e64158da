package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Labyrinth models STAMP labyrinth after the paper's restructuring: the
// expensive routing (grid copy + path search) happens privately *before*
// the transaction, and the transaction only validates and claims the
// path's grid cells. Path lengths are heavy-tailed and paths are assigned
// statically, so the workload's scaling is limited by load imbalance
// (barrier time), not conflicts — matching Figure 4.
type Labyrinth struct {
	PathsPer    int   // paths per thread at 32 threads
	GridWords   int64 // grid size in words (power of two)
	MinLen      int64
	RouteCost   int64 // busy iterations per path cell routed
	baseThreads int
}

// DefaultLabyrinth returns the evaluation configuration.
func DefaultLabyrinth() *Labyrinth {
	return &Labyrinth{PathsPer: 3, GridWords: 1 << 16, MinLen: 6, RouteCost: 24, baseThreads: 32}
}

// Name implements Workload.
func (w *Labyrinth) Name() string { return "labyrinth" }

// Description implements Workload.
func (w *Labyrinth) Description() string {
	return "shortest-path routing: private route computation, transactional claim of grid cells (STAMP labyrinth)"
}

// Build implements Workload.
func (w *Labyrinth) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	total := w.PathsPer * base

	img := mem.NewImage()
	grid := img.AllocBlocks(w.GridWords * 8)

	// Paths: heavy-tailed lengths (1x..8x MinLen), each a list of random
	// grid cells. A path is stored as [len, cell0, cell1, ...] and the
	// work item is its address.
	var cellTotal int64
	items := make([]int64, 0, total)
	type path struct {
		addr int64
		len  int64
	}
	var paths []path
	for p := 0; p < total; p++ {
		ln := w.MinLen << uint(r.intn(4)) // 1x, 2x, 4x or 8x
		addr := img.AllocBlocks((ln + 1) * 8)
		img.Write64(addr, ln)
		for i := int64(0); i < ln; i++ {
			img.Write64(addr+8+i*8, r.intn(w.GridWords))
		}
		items = append(items, addr)
		paths = append(paths, path{addr: addr, len: ln})
		cellTotal += ln
	}
	work := splitWork(items, threads)
	bases := allocWorkArrays(img, work)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB) // rA = path address
		b.Ld(rB, rA, 0, 8)  // rB = path length

		// Private routing: cost proportional to path length.
		b.Muli(rC, rB, w.RouteCost)
		b.Label("route")
		b.Addi(rC, rC, -1)
		b.Bgt(rC, isa.Zero, "route")

		// Claim the path's cells transactionally (each cell counts its
		// claimants so the verifier can check no claim was lost).
		b.TxBegin()
		b.Li(rC, 0)
		b.Label("claim")
		b.Bge(rC, rB, "claimed")
		b.Shli(rD, rC, 3)
		b.Add(rD, rD, rA)
		b.Ld(rE, rD, 8, 8) // cell index
		b.Shli(rE, rE, 3)
		b.Addi(rE, rE, grid)
		b.Ld(rF, rE, 0, 8)
		b.Addi(rF, rF, 1)
		b.St(rF, rE, 0, 8)
		b.Addi(rC, rC, 1)
		b.Jmp("claim")
		b.Label("claimed")
		b.TxCommit()
		epilogue(b)
		progs[t] = b.MustAssemble()
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     map[string]int64{"paths": int64(total), "cells": cellTotal},
		Verify: func(img *mem.Image) error {
			var sum int64
			for i := int64(0); i < w.GridWords; i++ {
				sum += img.Read64(grid + i*8)
			}
			if sum != cellTotal {
				return verifyErr(w.Name(), "grid claims sum to %d, want %d", sum, cellTotal)
			}
			return nil
		},
	}
}
