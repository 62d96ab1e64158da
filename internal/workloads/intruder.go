package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Intruder models STAMP intruder's pipeline: each transaction dequeues a
// packet from a queue, assembles its fragment into a shared flow map
// (hash-set insert of the flow key), performs private detection work, and
// enqueues a result onto a second queue.
//
// In the unoptimized variant both queues are shared, and the queue head
// and tail values index the slot arrays — contended values feeding address
// computation, which RETCON cannot repair (§5.4). The _opt variants make
// the queues thread-private (the paper's restructuring) and keep the flow
// map as a fixed-size or resizable hashtable.
type Intruder struct {
	Opt         bool
	Resizable   bool
	PacketsPer  int   // packets per thread at 32 threads (total fixed)
	Flows       int64 // distinct flow keys
	TableBits   int64
	DetectWork  int64 // private detection busy loop
	baseThreads int
}

// DefaultIntruder returns the unoptimized shared-queue variant.
func DefaultIntruder() *Intruder {
	return &Intruder{PacketsPer: 48, Flows: 384, TableBits: 11, DetectWork: 200, baseThreads: 32}
}

// DefaultIntruderOpt returns intruder_opt (thread-private queues, fixed table).
func DefaultIntruderOpt() *Intruder {
	w := DefaultIntruder()
	w.Opt = true
	return w
}

// DefaultIntruderOptSz returns intruder_opt-sz (private queues, resizable table).
func DefaultIntruderOptSz() *Intruder {
	w := DefaultIntruderOpt()
	w.Resizable = true
	return w
}

// Name implements Workload.
func (w *Intruder) Name() string {
	switch {
	case w.Opt && w.Resizable:
		return "intruder_opt-sz"
	case w.Opt:
		return "intruder_opt"
	default:
		return "intruder"
	}
}

// Description implements Workload.
func (w *Intruder) Description() string {
	d := "network packet reassembly: dequeue, insert flow into shared map, enqueue (STAMP intruder)"
	switch {
	case w.Opt && w.Resizable:
		d += "; thread-private queues, resizable map"
	case w.Opt:
		d += "; thread-private queues, fixed-size map"
	default:
		d += "; shared work queues (head/tail feed addressing)"
	}
	return d
}

// queue lays out a ring buffer: head word, tail word (separate blocks to
// keep the two contended words distinct) and a slot array.
type queue struct {
	head, tail, slots int64
	capMask           int64
}

func newQueue(img *mem.Image, capBits int64) *queue {
	q := &queue{capMask: int64(1)<<uint(capBits) - 1}
	q.head = img.AllocBlocks(mem.BlockSize)
	q.tail = img.AllocBlocks(mem.BlockSize)
	q.slots = img.AllocBlocks((q.capMask + 1) * 8)
	return q
}

func (q *queue) prefill(img *mem.Image, items []int64) {
	for i, v := range items {
		img.Write64(q.slots+int64(i)*8, v)
	}
	img.Write64(q.tail, int64(len(items)))
}

// Build implements Workload.
func (w *Intruder) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	total := w.PacketsPer * base
	packets := make([]int64, total)
	flowKeys := make([]int64, total)
	for i := range packets {
		flow := 1 + r.intn(w.Flows)
		packets[i] = flow // the packet's payload is its flow key
		flowKeys[i] = flow
	}

	img := mem.NewImage()
	ht := newHashTable(img, w.TableBits, w.Resizable, w.Flows*4)
	ht.capacityCheck(len(distinct(flowKeys)))

	// Queue capacity: the next power of two above the largest prefill.
	capBits := int64(1)
	maxFill := total
	if w.Opt {
		maxFill = total/threads + 2
	}
	for int64(1)<<uint(capBits) < int64(maxFill)+2 {
		capBits++
	}
	var inQs, outQs []*queue
	if w.Opt {
		per := splitWork(packets, threads)
		for t := 0; t < threads; t++ {
			in := newQueue(img, capBits)
			in.prefill(img, per[t])
			inQs = append(inQs, in)
			outQs = append(outQs, newQueue(img, capBits))
		}
	} else {
		in := newQueue(img, capBits)
		in.prefill(img, packets)
		inQs = append(inQs, in)
		outQs = append(outQs, newQueue(img, capBits))
	}

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		in, out := inQs[0], outQs[0]
		if w.Opt {
			in, out = inQs[t], outQs[t]
		}
		b := isa.NewBuilder(w.Name())
		b.Li(rTID, int64(t))
		b.Label("pkt_loop")
		// Phase 1 (capture): dequeue. The head value indexes the slot
		// array, so this phase's conflicts are not repairable by RETCON.
		b.TxBegin()
		b.Ld(rA, isa.Zero, in.head, 8)
		b.Ld(rB, isa.Zero, in.tail, 8)
		b.Beq(rA, rB, "drained")
		b.Andi(rC, rA, in.capMask)
		b.Shli(rC, rC, 3)
		b.Addi(rC, rC, in.slots)
		b.Ld(rD, rC, 0, 8) // packet (flow key)
		b.Addi(rA, rA, 1)
		b.St(rA, isa.Zero, in.head, 8)
		b.TxCommit()

		// Phase 2 (reassembly + detection): insert the flow key into the
		// shared map, then run the private detector.
		b.TxBegin()
		if w.DetectWork > 0 {
			b.BusyLoop(rH, w.DetectWork, "detect")
		}
		ht.emitInsert(b, "flow", rD, rE, rF, rG, rH, rI)
		b.TxCommit()

		// Phase 3 (forward): enqueue the processed packet.
		b.TxBegin()
		b.Ld(rA, isa.Zero, out.tail, 8)
		b.Andi(rC, rA, out.capMask)
		b.Shli(rC, rC, 3)
		b.Addi(rC, rC, out.slots)
		b.St(rD, rC, 0, 8)
		b.Addi(rA, rA, 1)
		b.St(rA, isa.Zero, out.tail, 8)
		b.TxCommit()
		b.Jmp("pkt_loop")

		b.Label("drained")
		b.TxCommit()
		b.Barrier()
		b.Halt()
		progs[t] = b.MustAssemble()
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta: map[string]int64{
			"packets":  int64(total),
			"distinct": int64(len(distinct(flowKeys))),
		},
		Verify: func(img *mem.Image) error {
			if err := ht.verify(img, w.Name(), flowKeys); err != nil {
				return err
			}
			var processed int64
			for _, q := range outQs {
				processed += img.Read64(q.tail)
			}
			if processed != int64(total) {
				return verifyErr(w.Name(), "processed %d packets, want %d", processed, total)
			}
			for _, q := range inQs {
				if h, tl := img.Read64(q.head), img.Read64(q.tail); h != tl {
					return verifyErr(w.Name(), "input queue not drained: head %d tail %d", h, tl)
				}
			}
			return nil
		},
	}
}
