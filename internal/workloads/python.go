package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Python models the transactionalized cpython interpreter: the global
// interpreter lock is elided into one transaction per bytecode batch. Each
// bytecode INCREFs a (mostly hot, singleton-like) shared object, uses its
// value, and DECREFs it — the reference-count conflicts that dominate the
// paper's python workload.
//
// The unoptimized variant additionally updates two interpreter globals per
// bytecode, exactly the state the paper's "_opt" restructuring makes
// thread-private with `__thread`:
//
//   - an instruction tick counter (repairable: pure increment), and
//   - an allocation pointer whose value indexes the heap (NOT repairable:
//     the value feeds an address, so RETCON must pin it and aborts when it
//     changes — this is why unmodified python does not scale even under
//     RETCON, §5.4).
type Python struct {
	Opt           bool
	BatchesPerCPU int   // bytecode-batch transactions per thread at 32 threads
	BatchLen      int64 // bytecodes per batch (GIL quantum)
	HotObjects    int64
	ColdObjects   int64
	HotPct        int64 // percent of bytecodes touching the hot set
	DispatchWork  int64 // busy iterations per bytecode (dispatch/decode cost)
	AllocEvery    int64 // unopt: allocate every n'th bytecode
	// RefWindow is how many bytecodes a reference is held before being
	// released: each bytecode INCREFs its object and DECREFs the object
	// referenced RefWindow bytecodes earlier. References therefore span
	// transaction boundaries and refcounts genuinely change at commit —
	// which is why value-based (lazy-vb) validation cannot save python_opt
	// but symbolic repair can (Figure 9).
	RefWindow   int64
	baseThreads int
}

// DefaultPython returns the unoptimized interpreter kernel.
func DefaultPython() *Python {
	return &Python{
		BatchesPerCPU: 10,
		BatchLen:      40,
		HotObjects:    6,
		ColdObjects:   2048,
		HotPct:        70,
		DispatchWork:  14,
		AllocEvery:    4,
		RefWindow:     4,
		baseThreads:   32,
	}
}

// DefaultPythonOpt returns the python_opt variant: interpreter globals are
// thread-private; only the shared reference counts remain.
func DefaultPythonOpt() *Python {
	p := DefaultPython()
	p.Opt = true
	return p
}

// Name implements Workload.
func (w *Python) Name() string {
	if w.Opt {
		return "python_opt"
	}
	return "python"
}

// Description implements Workload.
func (w *Python) Description() string {
	d := "cpython with GIL elision: refcount updates on shared objects per bytecode"
	if w.Opt {
		d += ", interpreter globals made thread-private"
	} else {
		d += ", shared interpreter globals (tick counter, allocation pointer)"
	}
	return d
}

const pyObjShift = 6 // one object per 64-byte block: [refcnt, value, ...]

// Build implements Workload.
func (w *Python) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	totalBatches := w.BatchesPerCPU * base
	nObj := w.HotObjects + w.ColdObjects

	// Per-thread contiguous bytecode streams (object index per bytecode).
	// Contiguity lets the DECREF of position p-RefWindow address the same
	// thread's stream directly, even across batch boundaries.
	batchesOf := make([]int, threads)
	for i := 0; i < totalBatches; i++ {
		batchesOf[i%threads]++
	}
	threadStreams := make([][]int64, threads)
	for t := 0; t < threads; t++ {
		stream := make([]int64, int64(batchesOf[t])*w.BatchLen)
		for i := range stream {
			if r.intn(100) < w.HotPct {
				stream[i] = r.intn(w.HotObjects)
			} else {
				stream[i] = w.HotObjects + r.intn(w.ColdObjects)
			}
		}
		threadStreams[t] = stream
	}

	img := mem.NewImage()
	objBase := img.AllocBlocks(nObj * mem.BlockSize)
	initialRC := int64(1)
	var valueSum int64
	for i := int64(0); i < nObj; i++ {
		img.Write64(objBase+i<<pyObjShift, initialRC) // refcnt
		v := 1 + r.intn(100)
		img.Write64(objBase+i<<pyObjShift+8, v) // value
		valueSum += v
	}

	// Interpreter globals: tick counter and allocation pointer. Shared in
	// the unopt variant; per-thread blocks in _opt. The _opt variant also
	// gets per-thread heap arenas, modeling the paper's Hoard allocator
	// ("a multicore-friendly drop-in replacement for malloc").
	heapSlots := int64(1) << 14
	var sharedGlobals, sharedHeap int64
	if !w.Opt {
		sharedGlobals = img.AllocBlocks(mem.BlockSize)
		sharedHeap = img.AllocBlocks(heapSlots * 8)
	}
	privGlobals := make([]int64, threads)
	privHeaps := make([]int64, threads)
	for t := range privGlobals {
		privGlobals[t] = img.AllocBlocks(mem.BlockSize)
		if w.Opt {
			privHeaps[t] = img.AllocBlocks(heapSlots * 8)
		}
	}

	// Write each thread's stream and build its work array of batch
	// addresses within that stream.
	work := make([][]int64, threads)
	for t := 0; t < threads; t++ {
		streamBase := img.AllocBlocks(int64(len(threadStreams[t])) * 8)
		writeWords(img, streamBase, threadStreams[t])
		for i := 0; i < batchesOf[t]; i++ {
			work[t] = append(work[t], streamBase+int64(i)*w.BatchLen*8)
		}
	}
	bases := allocWorkArrays(img, work)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB) // rA = stream pointer for this batch
		globals, heapBase := sharedGlobals, sharedHeap
		if w.Opt {
			globals, heapBase = privGlobals[t], privHeaps[t]
		}

		b.TxBegin()
		b.Li(rB, 0) // bytecode index within batch
		b.Label("bc_loop")

		// Fetch the bytecode's object index and compute the object address.
		b.Shli(rC, rB, 3)
		b.Add(rC, rC, rA)
		b.Ld(rD, rC, 0, 8)         // object index
		b.Shli(rD, rD, pyObjShift) // object offset
		b.Addi(rD, rD, objBase)    // object address

		// INCREF the referenced object and use its value.
		b.Ld(rE, rD, 0, 8)
		b.Addi(rE, rE, 1)
		b.St(rE, rD, 0, 8)
		b.Ld(rF, rD, 8, 8)
		b.Add(rG, rG, rF) // fold the value into a private accumulator

		// DECREF the object referenced RefWindow bytecodes earlier (its
		// reference is being dropped now). The stream is contiguous per
		// thread, so this works across batch boundaries; the first
		// RefWindow bytecodes of the run have nothing to release yet.
		b.Muli(rI, rIdx, w.BatchLen)
		b.Add(rI, rI, rB)
		b.Li(rJ, w.RefWindow)
		b.Blt(rI, rJ, "no_decref")
		b.Ld(rD, rC, -w.RefWindow*8, 8)
		b.Shli(rD, rD, pyObjShift)
		b.Addi(rD, rD, objBase)
		b.Ld(rE, rD, 0, 8)
		b.Addi(rE, rE, -1)
		b.St(rE, rD, 0, 8)
		b.Label("no_decref")

		// Interpreter globals: tick++ and periodic allocation.
		b.Ld(rE, isa.Zero, globals, 8)
		b.Addi(rE, rE, 1)
		b.St(rE, isa.Zero, globals, 8)
		if w.AllocEvery > 0 {
			b.Li(rH, w.AllocEvery)
			b.Rem(rH, rB, rH)
			b.Bne(rH, isa.Zero, "no_alloc")
			// allocPtr value indexes the heap: untrackable use.
			b.Ld(rE, isa.Zero, globals+8, 8)
			b.Andi(rH, rE, heapSlots-1)
			b.Shli(rH, rH, 3)
			b.Addi(rH, rH, heapBase)
			b.St(rB, rH, 0, 8)
			b.Addi(rE, rE, 1)
			b.St(rE, isa.Zero, globals+8, 8)
			b.Label("no_alloc")
		}

		// Dispatch overhead (private).
		if w.DispatchWork > 0 {
			b.BusyLoop(rH, w.DispatchWork, "dispatch")
		}

		b.Addi(rB, rB, 1)
		b.Li(rH, w.BatchLen)
		b.Blt(rB, rH, "bc_loop")
		b.TxCommit()

		// Close the work loop by hand (the drain below must run after it).
		b.Addi(rIdx, rIdx, 1)
		b.Jmp("work_loop")
		b.Label("work_done")

		// Interpreter shutdown: release the last RefWindow references.
		streamLen := int64(len(threadStreams[t]))
		drain := w.RefWindow
		if drain > streamLen {
			drain = streamLen
		}
		if drain > 0 {
			streamBase := work[t][0]
			b.TxBegin()
			for k := streamLen - drain; k < streamLen; k++ {
				b.Ld(rD, isa.Zero, streamBase+k*8, 8)
				b.Shli(rD, rD, pyObjShift)
				b.Addi(rD, rD, objBase)
				b.Ld(rE, rD, 0, 8)
				b.Addi(rE, rE, -1)
				b.St(rE, rD, 0, 8)
			}
			b.TxCommit()
		}
		b.Barrier()
		b.Halt()
		progs[t] = b.MustAssemble()
	}

	totalBytecodes := int64(totalBatches) * w.BatchLen
	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta: map[string]int64{
			"bytecodes": totalBytecodes,
			"objects":   nObj,
		},
		Verify: func(img *mem.Image) error {
			// Every INCREF was matched by a DECREF inside the same
			// transaction: all refcounts must be back to their initial
			// value, regardless of interleaving.
			for i := int64(0); i < nObj; i++ {
				if rc := img.Read64(objBase + i<<pyObjShift); rc != initialRC {
					return verifyErr(w.Name(), "object %d refcount = %d, want %d", i, rc, initialRC)
				}
			}
			// The tick counters must account for every executed bytecode.
			var ticks int64
			if w.Opt {
				for _, g := range privGlobals {
					ticks += img.Read64(g)
				}
			} else {
				ticks = img.Read64(sharedGlobals)
			}
			if ticks != totalBytecodes {
				return verifyErr(w.Name(), "tick total = %d, want %d (lost interpreter-global updates)", ticks, totalBytecodes)
			}
			// Allocation pointers must account for every allocation.
			var allocsPerBatch int64
			if w.AllocEvery > 0 {
				for j := int64(0); j < w.BatchLen; j++ {
					if j%w.AllocEvery == 0 {
						allocsPerBatch++
					}
				}
			}
			wantAllocs := allocsPerBatch * int64(totalBatches)
			var allocs int64
			if w.Opt {
				for _, g := range privGlobals {
					allocs += img.Read64(g + 8)
				}
			} else {
				allocs = img.Read64(sharedGlobals + 8)
			}
			if allocs != wantAllocs {
				return verifyErr(w.Name(), "allocation total = %d, want %d", allocs, wantAllocs)
			}
			return nil
		},
	}
}
