package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Vacation models STAMP vacation's reservation system. The unoptimized
// variant keeps the record map as a binary search tree in which one out of
// every four inserts triggers a "rebalance": it stamps a bookkeeping
// counter in every node on its root-to-leaf path, the same structural
// bookkeeping near the root that red-black rotations cause in STAMP.
// Reservations walk the tree read-only (key and child-pointer words) and
// decrement one record's availability counter, so they false-share node
// blocks with rebalance stamps — the conflict pattern value-based
// detection removes (§5.1: lazy-vb speeds up vacation).
//
// The _opt variants apply the paper's restructuring: the tree is replaced
// by a hashtable (fixed-size or resizable).
type Vacation struct {
	Opt         bool
	Resizable   bool
	OpsPer      int   // operations per thread at 32 threads
	Records     int64 // initial record population
	InsertPct   int64 // percent of operations that insert a new record
	TableBits   int64 // _opt variants
	InitAvail   int64
	QueryWork   int64 // private client computation inside each transaction
	baseThreads int
}

// DefaultVacation returns the BST (unoptimized) variant.
func DefaultVacation() *Vacation {
	return &Vacation{OpsPer: 48, Records: 512, InsertPct: 10, TableBits: 12, InitAvail: 100, QueryWork: 120, baseThreads: 32}
}

// DefaultVacationOpt returns vacation_opt (fixed-size hashtable map).
func DefaultVacationOpt() *Vacation {
	w := DefaultVacation()
	w.Opt = true
	return w
}

// DefaultVacationOptSz returns vacation_opt-sz (resizable hashtable map).
func DefaultVacationOptSz() *Vacation {
	w := DefaultVacationOpt()
	w.Resizable = true
	return w
}

// Name implements Workload.
func (w *Vacation) Name() string {
	switch {
	case w.Opt && w.Resizable:
		return "vacation_opt-sz"
	case w.Opt:
		return "vacation_opt"
	default:
		return "vacation"
	}
}

// Description implements Workload.
func (w *Vacation) Description() string {
	d := "travel reservations: lookups decrement availability, inserts add records (STAMP vacation)"
	switch {
	case w.Opt && w.Resizable:
		d += "; resizable hashtable map"
	case w.Opt:
		d += "; fixed-size hashtable map"
	default:
		d += "; BST map with ancestor subtree counters (rebalancing-conflict model)"
	}
	return d
}

// BST node layout: one block per node. Records (availability counters)
// live in separate per-key blocks, as in STAMP vacation where the tree
// maps keys to separately allocated reservation records.
const (
	vnKey   = 0
	vnLeft  = 8
	vnRight = 16
	vnCount = 24 // rebalance bookkeeping stamp
)

// buildBalanced writes a balanced BST over keys[lo:hi) and returns the
// subtree root address (0 for empty).
func buildBalanced(img *mem.Image, nodeBase int64, keys []int64, lo, hi int, avail int64) int64 {
	_ = avail
	if lo >= hi {
		return 0
	}
	mid := (lo + hi) / 2
	addr := nodeBase + int64(mid)*mem.BlockSize
	img.Write64(addr+vnKey, keys[mid])
	img.Write64(addr+vnLeft, buildBalanced(img, nodeBase, keys, lo, mid, avail))
	img.Write64(addr+vnRight, buildBalanced(img, nodeBase, keys, mid+1, hi, avail))
	return addr
}

// Build implements Workload.
func (w *Vacation) Build(threads int, seed int64) *Bundle {
	r := newRng(seed)
	base := w.baseThreads
	if base == 0 {
		base = 32
	}
	total := w.OpsPer * base

	// Operation stream: positive item = reserve(key); negative = insert(-item).
	items := make([]int64, total)
	nextNewKey := w.Records + 1
	var inserts, reserves int64
	for i := range items {
		if r.intn(100) < w.InsertPct {
			items[i] = -nextNewKey
			nextNewKey++
			inserts++
		} else {
			items[i] = 1 + r.intn(w.Records)
			reserves++
		}
	}

	img := mem.NewImage()
	if w.Opt {
		return w.buildHashVariant(img, items, threads, inserts, reserves)
	}

	// Initial balanced tree over keys 1..Records.
	keys := make([]int64, w.Records)
	for i := range keys {
		keys[i] = int64(i) + 1
	}
	nodeBase := img.AllocBlocks(w.Records * mem.BlockSize)
	root := buildBalanced(img, nodeBase, keys, 0, int(w.Records), w.InitAvail)

	// Reservation records: one block per key (records for inserted keys
	// are pre-provisioned with zero availability).
	maxKey := w.Records + inserts + 1
	recBase := img.AllocBlocks(maxKey * mem.BlockSize)
	for k := int64(1); k <= w.Records; k++ {
		img.Write64(recBase+k*mem.BlockSize, w.InitAvail)
	}

	// Per-thread pools for inserted nodes.
	work := splitWork(items, threads)
	bases := allocWorkArrays(img, work)
	pools := make([]int64, threads)
	for t := range pools {
		n := int64(0)
		for _, it := range work[t] {
			if it < 0 {
				n++
			}
		}
		if n == 0 {
			n = 1
		}
		pools[t] = img.AllocBlocks(n * mem.BlockSize)
	}

	const (
		rPool  = isa.Reg(21) // persistent per-thread insert-pool cursor
		rVisit = isa.Reg(22) // persistent per-thread rebalance-stamp count
	)
	// Per-thread words recording how many rebalance stamps the thread
	// performed; the verifier checks them against the tree's stamp totals.
	visitBase := img.AllocBlocks(int64(threads) * mem.BlockSize)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		b.Li(rPool, 0)  // insert-pool cursor, monotone across the whole run
		b.Li(rVisit, 0) // rebalance stamps performed by this thread
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB)
		b.Bgt(rA, isa.Zero, "reserve")

		// ---- insert(-rA) ----
		b.Rsubi(rB, rA, 0) // key = -item
		// new node address = pool + rPool*BlockSize
		b.Muli(rG, rPool, mem.BlockSize)
		b.Addi(rG, rG, pools[t])
		b.Addi(rPool, rPool, 1)
		b.Andi(rI, rB, 3) // rI==0: this insert rebalances (stamps its path)
		b.TxBegin()
		b.Li(rC, root)
		b.Label("iwalk")
		b.Bne(rI, isa.Zero, "iskip_stamp")
		b.Ld(rD, rC, vnCount, 8) // rebalance bookkeeping on the path node
		b.Addi(rD, rD, 1)
		b.St(rD, rC, vnCount, 8)
		b.Addi(rVisit, rVisit, 1)
		b.Label("iskip_stamp")
		b.Ld(rD, rC, vnKey, 8)
		b.Blt(rB, rD, "ileft")
		b.Ld(rE, rC, vnRight, 8)
		b.Beq(rE, isa.Zero, "iattach_r")
		b.Mov(rC, rE)
		b.Jmp("iwalk")
		b.Label("ileft")
		b.Ld(rE, rC, vnLeft, 8)
		b.Beq(rE, isa.Zero, "iattach_l")
		b.Mov(rC, rE)
		b.Jmp("iwalk")
		b.Label("iattach_l")
		b.St(rG, rC, vnLeft, 8)
		b.Jmp("iinit")
		b.Label("iattach_r")
		b.St(rG, rC, vnRight, 8)
		b.Label("iinit")
		b.St(rB, rG, vnKey, 8)
		b.TxCommit()
		b.Jmp("next")

		// ---- reserve(rA) ----
		b.Label("reserve")
		b.TxBegin()
		if w.QueryWork > 0 {
			b.BusyLoop(rH, w.QueryWork, "rquery")
		}
		b.Li(rC, root)
		b.Label("rwalk")
		b.Ld(rD, rC, vnKey, 8)
		b.Beq(rD, rA, "rfound")
		b.Bgt(rD, rA, "rleft")
		b.Ld(rC, rC, vnRight, 8)
		b.Jmp("rwalk")
		b.Label("rleft")
		b.Ld(rC, rC, vnLeft, 8)
		b.Jmp("rwalk")
		b.Label("rfound")
		// Reserve against the key's record block.
		b.Muli(rD, rA, mem.BlockSize)
		b.Addi(rD, rD, recBase)
		b.Ld(rE, rD, 0, 8)
		b.Addi(rE, rE, -1)
		b.St(rE, rD, 0, 8)
		b.TxCommit()

		b.Label("next")
		b.Addi(rIdx, rIdx, 1)
		b.Jmp("work_loop")
		b.Label("work_done")
		b.St(rVisit, isa.Zero, visitBase+int64(t)*mem.BlockSize, 8)
		b.Barrier()
		b.Halt()
		progs[t] = b.MustAssemble()
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     map[string]int64{"ops": int64(total), "inserts": inserts, "reserves": reserves},
		Verify: func(img *mem.Image) error {
			return w.verifyTree(img, root, visitBase, recBase, maxKey, threads, items, inserts, reserves)
		},
	}
}

// verifyTree walks the final tree checking the BST invariant, the key
// population, the rebalance-stamp totals (every stamp a thread performed
// must be visible exactly once) and the availability totals.
func (w *Vacation) verifyTree(img *mem.Image, root, visitBase, recBase, maxKey int64, threads int, items []int64, inserts, reserves int64) error {
	wantKeys := make(map[int64]bool, w.Records+inserts)
	for k := int64(1); k <= w.Records; k++ {
		wantKeys[k] = true
	}
	for _, it := range items {
		if it < 0 {
			wantKeys[-it] = true
		}
	}

	var availTotal, stampTotal int64
	seen := make(map[int64]bool)
	var walk func(addr, lo, hi int64) error
	walk = func(addr, lo, hi int64) error {
		if addr == 0 {
			return nil
		}
		if seen[addr] {
			return verifyErr(w.Name(), "tree node %#x reached twice (cycle)", addr)
		}
		if !inImage(img, addr, vnCount+mem.WordSize) {
			return verifyErr(w.Name(), "tree link %#x points outside the image", addr)
		}
		seen[addr] = true
		key := img.Read64(addr + vnKey)
		if key <= lo || key >= hi {
			return verifyErr(w.Name(), "BST violation: key %d outside (%d,%d)", key, lo, hi)
		}
		if !wantKeys[key] {
			return verifyErr(w.Name(), "unexpected key %d in tree", key)
		}
		delete(wantKeys, key)
		stampTotal += img.Read64(addr + vnCount)
		if err := walk(img.Read64(addr+vnLeft), lo, key); err != nil {
			return err
		}
		return walk(img.Read64(addr+vnRight), key, hi)
	}
	if err := walk(root, 0, int64(1)<<62); err != nil {
		return err
	}
	var wantStamps int64
	for t := 0; t < threads; t++ {
		wantStamps += img.Read64(visitBase + int64(t)*mem.BlockSize)
	}
	if stampTotal != wantStamps {
		return verifyErr(w.Name(), "rebalance stamps in tree = %d, threads performed %d (lost bookkeeping updates)", stampTotal, wantStamps)
	}
	for k := int64(1); k < maxKey; k++ {
		availTotal += img.Read64(recBase + k*mem.BlockSize)
	}
	if len(wantKeys) != 0 {
		return verifyErr(w.Name(), "%d keys missing from tree (lost inserts)", len(wantKeys))
	}
	wantAvail := w.Records*w.InitAvail - reserves
	if availTotal != wantAvail {
		return verifyErr(w.Name(), "availability total = %d, want %d (lost reservations)", availTotal, wantAvail)
	}
	return nil
}

// buildHashVariant builds the _opt programs: the map is a hashtable;
// reserves look the key up and decrement the adjacent availability array.
func (w *Vacation) buildHashVariant(img *mem.Image, items []int64, threads int, inserts, reserves int64) *Bundle {
	ht := newHashTable(img, w.TableBits, w.Resizable, w.Records*4)
	// Reservation records: one block per key.
	maxKey := w.Records + inserts + 1
	availBase := img.AllocBlocks(maxKey * mem.BlockSize)
	var allKeys []int64
	for k := int64(1); k <= w.Records; k++ {
		allKeys = append(allKeys, k)
		img.Write64(availBase+k*mem.BlockSize, w.InitAvail)
	}
	// Pre-populate the table with the initial records (sequentially, in
	// the image, using the same probe function).
	prepopulate(img, ht, allKeys)
	for _, it := range items {
		if it < 0 {
			allKeys = append(allKeys, -it)
		}
	}
	ht.capacityCheck(len(allKeys))

	work := splitWork(items, threads)
	bases := allocWorkArrays(img, work)

	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		b := isa.NewBuilder(w.Name())
		prologue(b, t, threads, bases[t], int64(len(work[t])))
		nextWork(b, rA, rB)
		b.Bgt(rA, isa.Zero, "reserve")

		// insert(-rA)
		b.Rsubi(rB, rA, 0)
		b.TxBegin()
		ht.emitInsert(b, "ins", rB, rC, rD, rE, rF, rG)
		b.TxCommit()
		b.Jmp("next")

		// reserve(rA): lookup + avail[key]--
		b.Label("reserve")
		b.TxBegin()
		if w.QueryWork > 0 {
			b.BusyLoop(rH, w.QueryWork, "hquery")
		}
		ht.emitLookup(b, "lkp", rA, rC, rD, rE, rF)
		b.Muli(rD, rA, mem.BlockSize)
		b.Addi(rD, rD, availBase)
		b.Ld(rE, rD, 0, 8)
		b.Addi(rE, rE, -1)
		b.St(rE, rD, 0, 8)
		b.TxCommit()

		b.Label("next")
		epilogue(b)
		progs[t] = b.MustAssemble()
	}

	return &Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     map[string]int64{"ops": int64(len(items)), "inserts": inserts, "reserves": reserves},
		Verify: func(img *mem.Image) error {
			if err := ht.verify(img, w.Name(), allKeys); err != nil {
				return err
			}
			var availTotal int64
			for k := int64(1); k < maxKey; k++ {
				availTotal += img.Read64(availBase + k*mem.BlockSize)
			}
			if want := w.Records*w.InitAvail - reserves; availTotal != want {
				return verifyErr(w.Name(), "availability total = %d, want %d", availTotal, want)
			}
			return nil
		},
	}
}

// prepopulate inserts keys into the table image directly (pre-simulation
// setup), using the same multiplicative hash as the ISA code.
func prepopulate(img *mem.Image, ht *hashTable, keys []int64) {
	mask := int64(1)<<uint(ht.Bits) - 1
	const fib = -7046029254386353131
	for _, k := range keys {
		h := int64(uint64(k*fib) >> uint(64-ht.Bits))
		for {
			addr := ht.Base + (h&mask)*8
			if img.Read64(addr) == 0 {
				img.Write64(addr, k)
				break
			}
			h++
		}
	}
	if ht.SizeAddr != 0 {
		img.Write64(ht.SizeAddr, int64(len(keys)))
	}
}
