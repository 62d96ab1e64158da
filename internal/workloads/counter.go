package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Counter is the shared-counter microbenchmark of Figure 2: every thread
// runs transactions that increment one shared counter IncsPerTx times.
// Under eager or lazy HTM the counter serializes all threads; RETCON
// repairs the increments at commit and the workload scales.
type Counter struct {
	OpsPerThread int // transactions per thread
	IncsPerTx    int // increments per transaction
	LocalWork    int // private busy-loop iterations per transaction
}

// DefaultCounter returns the configuration used by the examples and tests.
func DefaultCounter() *Counter {
	return &Counter{OpsPerThread: 64, IncsPerTx: 2, LocalWork: 200}
}

// Name implements Workload.
func (w *Counter) Name() string { return "counter" }

// Description implements Workload.
func (w *Counter) Description() string {
	return "shared-counter microbenchmark (Figure 2): transactions increment one shared word"
}

// Build implements Workload.
func (w *Counter) Build(threads int, seed int64) *Bundle {
	img := mem.NewImage()
	counter := img.AllocBlocks(mem.BlockSize)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder("counter")
		prologue(b, t, threads, 0, int64(w.OpsPerThread))
		b.TxBegin()
		for k := 0; k < w.IncsPerTx; k++ {
			b.Ld(rA, isa.Zero, counter, 8)
			b.Addi(rA, rA, 1)
			b.St(rA, isa.Zero, counter, 8)
		}
		if w.LocalWork > 0 {
			b.BusyLoop(rB, int64(w.LocalWork), "busy")
		}
		b.TxCommit()
		epilogue(b)
		progs[t] = b.MustAssemble()
	}

	want := int64(threads * w.OpsPerThread * w.IncsPerTx)
	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     map[string]int64{"expected": want, "counterAddr": counter},
		Verify: func(img *mem.Image) error {
			if got := img.Read64(counter); got != want {
				return verifyErr("counter", "counter = %d, want %d (lost updates)", got, want)
			}
			return nil
		},
	}
}
