package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// KMeans models one assignment+accumulation pass of STAMP kmeans: for each
// (private) point, the thread computes the nearest center against a
// read-only center array, then updates that center's accumulator vector
// and membership count in a transaction.
//
// The accumulator updates model floating-point adds (AddF), which RETCON
// does not track symbolically — matching the paper, where kmeans shows
// little difference between eager, lazy-vb and RETCON.
type KMeans struct {
	PointsPer   int // points per thread at 32 threads (total fixed)
	Clusters    int64
	Dims        int64
	baseThreads int
}

// DefaultKMeans returns the evaluation configuration.
func DefaultKMeans() *KMeans {
	return &KMeans{PointsPer: 20, Clusters: 16, Dims: 8, baseThreads: 32}
}

// Name implements Workload.
func (w *KMeans) Name() string { return "kmeans" }

// Description implements Workload.
func (w *KMeans) Description() string {
	return "partition-based clustering: per-point nearest-center scan, transactional accumulator update (STAMP kmeans)"
}

// Build implements Workload.
func (w *KMeans) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	total := w.PointsPer * base

	img := mem.NewImage()

	// Read-only centers: Clusters x Dims words.
	centerBase := img.AllocBlocks(w.Clusters * w.Dims * 8)
	valRange := int64(1 << 10)
	centers := make([]int64, w.Clusters*w.Dims)
	for i := range centers {
		centers[i] = r.intn(valRange)
	}
	writeWords(img, centerBase, centers)

	// Accumulators: two blocks per cluster: Dims sum words in the first,
	// the membership count in the second.
	accStride := int64(2 * mem.BlockSize)
	accBase := img.AllocBlocks(w.Clusters * accStride)

	// Points: Dims words each, in a flat array; points are drawn near a
	// (zipf-skewed) home center so some centers are popular.
	points := make([]int64, int64(total)*w.Dims)
	nearest := make([]int64, total)
	for p := 0; p < total; p++ {
		// Skew: cluster c with probability ~ 1/(c+1).
		c := r.intn(w.Clusters)
		if r.intn(2) == 0 {
			c = r.intn(1 + c) // bias toward low-numbered clusters
		}
		for d := int64(0); d < w.Dims; d++ {
			points[int64(p)*w.Dims+d] = centers[c*w.Dims+d] + r.intn(17) - 8
		}
		nearest[p] = w.nearestCenter(centers, points[int64(p)*w.Dims:int64(p)*w.Dims+w.Dims])
	}
	pointBase := img.AllocBlocks(int64(len(points)) * 8)
	writeWords(img, pointBase, points)

	// Work item = point address.
	items := make([]int64, total)
	for p := 0; p < total; p++ {
		items[p] = pointBase + int64(p)*w.Dims*8
	}
	work := splitWork(items, threads)
	bases := allocWorkArrays(img, work)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB) // rA = point address

		// Nearest-center scan (private, read-only): argmin over clusters
		// of the squared distance.
		b.Li(rB, 0)     // cluster index
		b.Li(rC, 1<<40) // best distance
		b.Li(rD, 0)     // best cluster
		b.Label("scan")
		b.Li(rE, 0) // dist accumulator
		for d := int64(0); d < w.Dims; d++ {
			b.Muli(rF, rB, w.Dims*8)
			b.Addi(rF, rF, centerBase+d*8)
			b.Ld(rG, rF, 0, 8)   // center coord
			b.Ld(rH, rA, d*8, 8) // point coord
			b.Sub(rG, rG, rH)
			b.MulF(rG, rG, rG)
			b.AddF(rE, rE, rG)
		}
		b.Bge(rE, rC, "not_better")
		b.Mov(rC, rE)
		b.Mov(rD, rB)
		b.Label("not_better")
		b.Addi(rB, rB, 1)
		b.Li(rE, w.Clusters)
		b.Blt(rB, rE, "scan")

		// Transaction: fold the point into the winning cluster's
		// accumulators and bump its membership count.
		b.TxBegin()
		b.Muli(rE, rD, accStride)
		b.Addi(rE, rE, accBase) // accumulator base address
		for d := int64(0); d < w.Dims; d++ {
			b.Ld(rF, rE, d*8, 8)
			b.Ld(rG, rA, d*8, 8)
			b.AddF(rF, rF, rG) // models FP accumulate: not trackable
			b.St(rF, rE, d*8, 8)
		}
		b.Ld(rF, rE, mem.BlockSize, 8)
		b.Addi(rF, rF, 1)
		b.St(rF, rE, mem.BlockSize, 8)
		b.TxCommit()
		epilogue(b)
		progs[t] = b.MustAssemble()
	}

	// Expected accumulator state.
	wantSum := make([]int64, w.Clusters*w.Dims)
	wantCnt := make([]int64, w.Clusters)
	for p := 0; p < total; p++ {
		c := nearest[p]
		wantCnt[c]++
		for d := int64(0); d < w.Dims; d++ {
			wantSum[c*w.Dims+d] += points[int64(p)*w.Dims+d]
		}
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     map[string]int64{"points": int64(total)},
		Verify: func(img *mem.Image) error {
			for c := int64(0); c < w.Clusters; c++ {
				blk := accBase + c*accStride
				for d := int64(0); d < w.Dims; d++ {
					if got := img.Read64(blk + d*8); got != wantSum[c*w.Dims+d] {
						return verifyErr(w.Name(), "cluster %d dim %d sum = %d, want %d", c, d, got, wantSum[c*w.Dims+d])
					}
				}
				if got := img.Read64(blk + mem.BlockSize); got != wantCnt[c] {
					return verifyErr(w.Name(), "cluster %d count = %d, want %d", c, got, wantCnt[c])
				}
			}
			return nil
		},
	}
}

// nearestCenter mirrors the ISA argmin exactly (first minimum wins).
func (w *KMeans) nearestCenter(centers, pt []int64) int64 {
	best, bestC := int64(1)<<40, int64(0)
	for c := int64(0); c < w.Clusters; c++ {
		var d2 int64
		for d := int64(0); d < w.Dims; d++ {
			diff := centers[c*w.Dims+d] - pt[d]
			d2 += diff * diff
		}
		if d2 < best {
			best, bestC = d2, c
		}
	}
	return bestC
}
