// Package workloads implements the benchmark kernels used in the paper's
// evaluation (Table 2): STAMP-like kernels reproducing each application's
// transactional conflict structure, plus the transactionalized-cpython
// kernel, plus the shared-counter microbenchmark of Figure 2.
//
// Each kernel builds per-thread ISA programs and an initial memory image,
// and supplies a verifier that checks atomicity invariants against the
// final memory image — the correctness oracle for the HTM and for RETCON's
// repair. DESIGN.md documents how each kernel maps to its STAMP original.
//
// A kernel never states its image size: it starts from mem.NewImage and
// allocates its layout, and the image grows to exactly that layout. A
// verifier reads only laid-out words and bounds-checks every link it
// follows, so a corrupt final image fails verification with an error
// rather than a panic.
//
// # Kernels
//
// Nine kernel families expand to the registry's fifteen named variants
// ("-sz" = resizable container with a shared size field, "_opt" = the
// paper's software restructuring):
//
//	genome     genome, genome-sz                        hash-set deduplication
//	intruder   intruder, intruder_opt, intruder_opt-sz  packet reassembly, shared queues/map
//	kmeans     kmeans                                   clustering, accumulator updates
//	labyrinth  labyrinth                                grid routing, cell claims
//	ssca2      ssca2                                    graph edge appends
//	vacation   vacation, vacation_opt, vacation_opt-sz  reservations over BST / hashtable
//	yada       yada                                     mesh refinement, pointer splices
//	python     python, python_opt                       cpython GIL elision, refcounts
//	counter    counter                                  Figure 2 shared-counter microbenchmark
//
// (hashtable.go is the shared open-addressing table used by genome,
// intruder and vacation_opt, not a workload itself.)
//
// # Registry semantics and determinism
//
// The process-wide Registry (Default) holds the builtin kernels in the
// paper's presentation order plus anything registered dynamically —
// notably workload specs compiled by internal/wspec. Builtins returns
// freshly constructed builtin values on every call, All adds the
// registered entries, and Lookup resolves names with nearest-match
// suggestions on a miss; workloads carry no state between Build calls. Build(threads, seed) is
// fully deterministic: the same (threads, seed) pair always yields the
// same memory image and programs, the total work is independent of the
// thread count (the 1-thread build is the sequential baseline), and all
// randomness flows from the explicit seed through a split-mix generator —
// never from time, map order or scheduling. Bundles share no mutable
// state, so distinct runs may be simulated concurrently.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Bundle is a built workload instance: the initial memory image, one
// program per thread, and a verifier over the final image.
type Bundle struct {
	Mem      *mem.Image
	Programs []*isa.Program
	Verify   func(img *mem.Image) error
	// Meta exposes workload-specific numbers (expected totals and the
	// like) for tests and reports.
	Meta map[string]int64
}

// Workload builds bundles for a given thread count and seed.
type Workload interface {
	// Name is the paper's workload name (e.g. "genome-sz").
	Name() string
	// Description matches Table 2's description column.
	Description() string
	// Build constructs the bundle for the given thread count. The total
	// amount of work is independent of the thread count, so the 1-thread
	// build is the sequential baseline.
	Build(threads int, seed int64) *Bundle
}

// rng is the deterministic split-mix generator used for Go-side input
// construction (all in-ISA randomness uses xorshift seeded from it).
type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	if seed == 0 {
		seed = 0x5DEECE66D
	}
	return &rng{s: uint64(seed)}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a deterministic value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		panic("workloads: intn on non-positive bound")
	}
	return int64(r.next() % uint64(n))
}

// Register conventions shared by the kernels. Registers r1..r9 hold
// thread-constant configuration; r10+ are scratch.
const (
	rTID   = isa.Reg(1) // thread id
	rNT    = isa.Reg(2) // number of threads
	rWork  = isa.Reg(3) // per-thread work-array base
	rCount = isa.Reg(4) // per-thread work count
	rIdx   = isa.Reg(5) // work index
	rA     = isa.Reg(10)
	rB     = isa.Reg(11)
	rC     = isa.Reg(12)
	rD     = isa.Reg(13)
	rE     = isa.Reg(14)
	rF     = isa.Reg(15)
	rG     = isa.Reg(16)
	rH     = isa.Reg(17)
	rI     = isa.Reg(18)
	rJ     = isa.Reg(19)
	rK     = isa.Reg(20)
)

// prologue emits the standard thread setup: tid/thread-count constants and
// the work loop header. The caller emits the loop body and must finish
// with epilogue.
func prologue(b *isa.Builder, tid, threads int, workBase, workCount int64) {
	b.Li(rTID, int64(tid))
	b.Li(rNT, int64(threads))
	b.Li(rWork, workBase)
	b.Li(rCount, workCount)
	b.Li(rIdx, 0)
	b.Label("work_loop")
	b.Bge(rIdx, rCount, "work_done")
}

// nextWork emits the load of the current work item into dst (8-byte items).
func nextWork(b *isa.Builder, dst isa.Reg, tmp isa.Reg) {
	b.Shli(tmp, rIdx, 3)
	b.Add(tmp, tmp, rWork)
	b.Ld(dst, tmp, 0, 8)
}

// epilogue closes the work loop and ends the thread with barrier+halt.
func epilogue(b *isa.Builder) {
	b.Addi(rIdx, rIdx, 1)
	b.Jmp("work_loop")
	b.Label("work_done")
	b.Barrier()
	b.Halt()
}

// writeWords stores a slice of words starting at base.
func writeWords(img *mem.Image, base int64, words []int64) {
	for i, w := range words {
		img.Write64(base+int64(i)*8, w)
	}
}

// splitWork deterministically partitions items into per-thread slices of
// near-equal size (round-robin, preserving relative order).
func splitWork(items []int64, threads int) [][]int64 {
	out := make([][]int64, threads)
	for i, v := range items {
		t := i % threads
		out[t] = append(out[t], v)
	}
	return out
}

// allocWorkArrays writes each thread's work slice into memory and returns
// the base addresses.
func allocWorkArrays(img *mem.Image, work [][]int64) []int64 {
	bases := make([]int64, len(work))
	for t, items := range work {
		n := int64(len(items))
		if n == 0 {
			n = 1
		}
		bases[t] = img.AllocBlocks(n * 8)
		writeWords(img, bases[t], work[t])
	}
	return bases
}

// distinct returns the sorted distinct values of items.
func distinct(items []int64) []int64 {
	seen := make(map[int64]bool, len(items))
	var out []int64
	for _, v := range items {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// inImage reports whether the n bytes at addr lie inside img. Verifiers
// check each link they follow with it (see the package doc).
func inImage(img *mem.Image, addr, n int64) bool { return addr >= 0 && addr <= img.Size()-n }

// verifyErr builds a consistent verification error.
func verifyErr(workload, format string, args ...interface{}) error {
	return fmt.Errorf("%s: verify: %s", workload, fmt.Sprintf(format, args...))
}
