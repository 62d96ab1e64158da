package wspec

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Workload is a compiled spec. It implements workloads.Workload, so the
// sweep engine, the CLIs, the report harness and the fuzz oracles all
// consume it through the registry with no changes to their run loops.
type Workload struct {
	spec *Spec
	rs   *rspec
	name string
}

// Compile resolves the spec against its declared parameter defaults
// patched by overrides, runs every compile-time check, and returns the
// runnable workload. name overrides the registry name ("" keeps the
// spec's own name).
func (s *Spec) Compile(name string, overrides map[string]float64) (*Workload, error) {
	rs, err := resolve(s, overrides)
	if err != nil {
		if s.Name != "" {
			return nil, fmt.Errorf("wspec: spec %q: %w", s.Name, err)
		}
		return nil, fmt.Errorf("wspec: %w", err)
	}
	if name == "" {
		name = s.Name
	}
	return &Workload{spec: s, rs: rs, name: name}, nil
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return w.name }

// Description implements workloads.Workload.
func (w *Workload) Description() string {
	if w.rs.desc != "" {
		return w.rs.desc
	}
	return "declarative workload spec"
}

// Spec returns the source document (for describe-style tooling).
func (w *Workload) Spec() *Spec { return w.spec }

// Params returns a copy of the resolved knob values (defaults patched by
// the compile-time overrides).
func (w *Workload) Params() map[string]float64 {
	out := make(map[string]float64, len(w.rs.params))
	//lint:maporder-safe commutative copy into a fresh map; no order-dependent effect
	for k, v := range w.rs.params {
		out[k] = v
	}
	return out
}

// Register conventions for compiled programs.
const (
	rCur  = isa.Reg(1)  // work-stream cursor
	rIter = isa.Reg(2)  // phase loop counter
	rAddr = isa.Reg(10) // sampled target address
	rVal  = isa.Reg(11) // loaded / stored value
	rTmp  = isa.Reg(12) // queue cursor scratch
	rTmp2 = isa.Reg(13) // checksum scratch
	rBusy = isa.Reg(14) // busy-loop counter
	rKey  = isa.Reg(15) // probe key
	rNSl  = isa.Reg(16) // probe table size
	rSlot = isa.Reg(17) // probe slot index
)

// objLayout is the placed form of one object.
type objLayout struct {
	base                     int64 // array cells / table slots
	head, tail, check, slots int64 // queues
}

// buildModel accumulates the statically-expected final state during the
// sampling pass, for the objects the verify checks cover.
type buildModel struct {
	addSum  map[int][]int64 // array obj -> per-cell fetch_add totals
	written map[int][]bool  // array obj -> per-cell "a write landed here"
	keys    map[int][]int64 // table obj -> every probed key, in probe order
	pushSum map[int]int64   // queue obj -> sum of pushed values
	pushCnt map[int]int64   // queue obj -> number of pushes
}

// Build implements workloads.Workload: it lays the objects and per-thread
// operand streams out in a fresh memory image, samples every access
// pattern deterministically from the seed, lowers each thread's phases to
// an assembled ISA program, and packages the final-state oracle.
func (w *Workload) Build(threads int, seed int64) *workloads.Bundle {
	if threads < 1 {
		panic("wspec: Build with no threads")
	}
	rs := w.rs
	serving := assignThreads(rs, threads)

	// Per-thread stream lengths (in words) are a pure function of the
	// split, so the layout can be fixed before sampling.
	streamWords := make([]int64, threads)
	forEachPhase(rs, func(gi int, ph *rphase) {
		var perIter int64
		for _, op := range ph.ops {
			perIter += int64(op.n) * int64(opStreamWords(op.kind))
		}
		counts := splitIters(ph.iters, len(serving[gi]))
		for j, t := range serving[gi] {
			streamWords[t] += counts[j] * perIter
		}
	})

	// Layout: objects in declaration order, then the streams.
	img := mem.NewImage()
	layout := make([]objLayout, len(rs.objects))
	for i := range rs.objects {
		o := &rs.objects[i]
		switch o.kind {
		case oArray:
			layout[i].base = img.AllocBlocks(int64(o.cells) * cellStride(o))
			if o.init != 0 {
				for c := 0; c < o.cells; c++ {
					img.Write64(cellAddr(o, layout[i].base, c), o.init)
				}
			}
		case oTable:
			layout[i].base = img.AllocBlocks(int64(o.slots) * mem.WordSize)
		case oQueue:
			layout[i].head = img.AllocBlocks(mem.WordSize)
			layout[i].tail = img.AllocBlocks(mem.WordSize)
			layout[i].check = img.AllocBlocks(mem.WordSize)
			layout[i].slots = img.AllocBlocks(int64(o.cap) * mem.WordSize)
		}
	}
	streamBase := make([]int64, threads)
	for t := 0; t < threads; t++ {
		streamBase[t] = img.AllocBlocks(streamWords[t] * mem.WordSize)
	}

	// Sampling pass: walk every op instance in the fixed traversal order
	// (epoch, group, phase, global iteration, op, repeat), draw targets,
	// fill the streams and accumulate the expected final state.
	model := &buildModel{
		addSum:  make(map[int][]int64),
		written: make(map[int][]bool),
		keys:    make(map[int][]int64),
		pushSum: make(map[int]int64),
		pushCnt: make(map[int]int64),
	}
	for _, c := range rs.checks {
		o := &rs.objects[c.obj]
		if o.kind == oArray && model.addSum[c.obj] == nil {
			model.addSum[c.obj] = make([]int64, o.cells)
			model.written[c.obj] = make([]bool, o.cells)
		}
	}
	r := newRng(seed)
	cursor := make([]int64, threads) // next stream write address per thread
	copy(cursor, streamBase)
	emitWord := func(t int, v int64) {
		img.Write64(cursor[t], v)
		cursor[t] += mem.WordSize
	}
	keySeq := make(map[int]int64)  // table obj -> last assigned key
	pushSeq := make(map[int]int64) // queue obj -> last auto value
	var instances int64

	forEachPhase(rs, func(gi int, ph *rphase) {
		k := len(serving[gi])
		counts := splitIters(ph.iters, k)
		samplers := make([]*sampler, len(ph.ops))
		for oi, op := range ph.ops {
			if op.kind == kRead || op.kind == kWrite || op.kind == kFetchAdd {
				samplers[oi] = newSampler(op.dist, rs.objects[op.obj].cells, k)
			}
		}
		j, localEnd, localStart := 0, counts[0], int64(0)
		for gIter := int64(0); gIter < ph.iters; gIter++ {
			for gIter >= localEnd {
				j++
				localStart = localEnd
				localEnd += counts[j]
			}
			t := serving[gi][j]
			li := gIter - localStart
			for oi := range ph.ops {
				op := &ph.ops[oi]
				obj := &rs.objects[op.obj]
				for rep := 0; rep < op.n; rep++ {
					instances++
					switch op.kind {
					case kRead, kWrite, kFetchAdd:
						cell := samplers[oi].sample(r, j, li)
						emitWord(t, cellAddr(obj, layout[op.obj].base, cell))
						if op.kind == kFetchAdd {
							if s := model.addSum[op.obj]; s != nil {
								s[cell] += op.delta
							}
						} else if op.kind == kWrite {
							if wr := model.written[op.obj]; wr != nil {
								wr[cell] = true
							}
						}
					case kProbe:
						keySeq[op.obj]++
						key := keySeq[op.obj]
						emitWord(t, key)
						model.keys[op.obj] = append(model.keys[op.obj], key)
					case kPush:
						v := op.value
						if !op.hasValue {
							pushSeq[op.obj]++
							v = pushSeq[op.obj]
						}
						emitWord(t, v)
						model.pushSum[op.obj] += v
						model.pushCnt[op.obj]++
					case kPop:
						// no operand
					}
				}
			}
		}
	})

	// Codegen: one program per thread, consuming its stream in exactly
	// the order the sampling pass filled it.
	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		cc := &codegen{b: isa.NewBuilder(fmt.Sprintf("%s-t%d", w.name, t)), rs: rs, layout: layout}
		cc.b.Li(rCur, streamBase[t])
		for e := 0; e < rs.epochs; e++ {
			for gi := range rs.groups {
				j := servingIndex(serving[gi], t)
				if j < 0 {
					continue
				}
				for pi := range rs.groups[gi].epochs[e] {
					ph := &rs.groups[gi].epochs[e][pi]
					counts := splitIters(ph.iters, len(serving[gi]))
					cc.phase(ph, counts[j])
				}
			}
			if e < rs.epochs-1 {
				cc.b.Barrier()
			}
		}
		cc.b.Barrier()
		cc.b.Halt()
		progs[t] = cc.b.MustAssemble()
	}

	meta := map[string]int64{
		"instances":    instances,
		"stream_words": sum64(streamWords),
	}
	for i := range rs.objects {
		o := &rs.objects[i]
		switch o.kind {
		case oQueue:
			meta["addr_"+o.name] = layout[i].head
		default:
			meta["addr_"+o.name] = layout[i].base
		}
	}
	return &workloads.Bundle{
		Mem:      img,
		Programs: progs,
		Meta:     meta,
		Verify:   w.verifier(layout, model),
	}
}

// cellStride is the byte distance between consecutive cells.
func cellStride(o *robj) int64 {
	if o.padded {
		return mem.BlockSize
	}
	return mem.WordSize
}

func cellAddr(o *robj, base int64, cell int) int64 {
	return base + int64(cell)*cellStride(o)
}

// opStreamWords is the number of operand words one op instance consumes.
func opStreamWords(k opKind) int {
	if k == kPop {
		return 0
	}
	return 1
}

// forEachPhase walks work phases in the canonical traversal order:
// epoch-major, then group, then phase.
func forEachPhase(rs *rspec, fn func(gi int, ph *rphase)) {
	for e := 0; e < rs.epochs; e++ {
		for gi := range rs.groups {
			for pi := range rs.groups[gi].epochs[e] {
				fn(gi, &rs.groups[gi].epochs[e][pi])
			}
		}
	}
}

// assignThreads maps each group to its ordered serving-thread list. With
// threads >= groups every group gets a contiguous run of thread ids,
// sized by largest-remainder on the weights with a minimum of one; with
// fewer threads than groups, thread g%threads serves group g (a thread
// then runs its groups' phases back to back within each epoch, so the
// 1-thread build is the sequential execution of the whole spec).
func assignThreads(rs *rspec, threads int) [][]int {
	g := len(rs.groups)
	serving := make([][]int, g)
	if threads < g {
		for i := 0; i < g; i++ {
			serving[i] = []int{i % threads}
		}
		return serving
	}
	totalW := 0
	for i := range rs.groups {
		totalW += rs.groups[i].weight
	}
	shares := make([]int, g)
	type frac struct {
		rem int // weight*threads mod totalW, the largest-remainder key
		gi  int
	}
	fracs := make([]frac, g)
	assigned := 0
	for i := range rs.groups {
		exact := rs.groups[i].weight * threads
		shares[i] = exact / totalW
		fracs[i] = frac{rem: exact % totalW, gi: i}
		assigned += shares[i]
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for i := 0; assigned < threads; i = (i + 1) % g {
		shares[fracs[i].gi]++
		assigned++
	}
	// Every group gets at least one thread (threads >= groups holds).
	for {
		zero := -1
		for i := range shares {
			if shares[i] == 0 {
				zero = i
				break
			}
		}
		if zero < 0 {
			break
		}
		max := 0
		for i := range shares {
			if shares[i] > shares[max] {
				max = i
			}
		}
		shares[max]--
		shares[zero]++
	}
	next := 0
	for i := range shares {
		for n := 0; n < shares[i]; n++ {
			serving[i] = append(serving[i], next)
			next++
		}
	}
	return serving
}

func servingIndex(serving []int, t int) int {
	for j, s := range serving {
		if s == t {
			return j
		}
	}
	return -1
}

// splitIters splits a group-total iteration count contiguously across k
// serving threads (leading threads take the remainder).
func splitIters(total int64, k int) []int64 {
	counts := make([]int64, k)
	base, rem := total/int64(k), total%int64(k)
	for j := range counts {
		counts[j] = base
		if int64(j) < rem {
			counts[j]++
		}
	}
	return counts
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// codegen lowers one thread's phases.
type codegen struct {
	b      *isa.Builder
	rs     *rspec
	layout []objLayout
	n      int // label counter
}

func (c *codegen) label(pfx string) string {
	c.n++
	return fmt.Sprintf("%s_%d", pfx, c.n)
}

// phase emits the thread's n iterations of one work phase.
func (c *codegen) phase(ph *rphase, n int64) {
	if n == 0 {
		return
	}
	b := c.b
	top := c.label("phase")
	b.Li(rIter, n)
	b.Label(top)
	if ph.tx {
		b.TxBegin()
	}
	for oi := range ph.ops {
		op := &ph.ops[oi]
		for rep := 0; rep < op.n; rep++ {
			c.op(op)
		}
	}
	if ph.busy > 0 {
		b.BusyLoop(rBusy, ph.busy, c.label("busy"))
	}
	if ph.tx {
		b.TxCommit()
	}
	b.Addi(rIter, rIter, -1)
	b.Bgt(rIter, isa.Zero, top)
}

// nextOperand emits the stream load of the next operand word into dst.
func (c *codegen) nextOperand(dst isa.Reg) {
	c.b.Ld(dst, rCur, 0, 8)
	c.b.Addi(rCur, rCur, 8)
}

// op emits one op instance.
func (c *codegen) op(op *rop) {
	b := c.b
	lay := &c.layout[op.obj]
	switch op.kind {
	case kRead:
		c.nextOperand(rAddr)
		b.Ld(rVal, rAddr, 0, op.size)
	case kWrite:
		c.nextOperand(rAddr)
		b.Li(rVal, op.value)
		b.St(rVal, rAddr, 0, op.size)
	case kFetchAdd:
		c.nextOperand(rAddr)
		b.Ld(rVal, rAddr, 0, 8)
		b.Addi(rVal, rVal, op.delta)
		b.St(rVal, rAddr, 0, 8)
	case kProbe:
		// Linear probe for an empty slot, wrapping at the table end.
		// Keys are globally distinct and occupancy stays <= slots/2, so
		// the loop terminates under every interleaving.
		obj := &c.rs.objects[op.obj]
		loop, claim := c.label("probe"), c.label("claim")
		c.nextOperand(rKey)
		b.Li(rNSl, int64(obj.slots))
		b.Rem(rSlot, rKey, rNSl)
		b.Label(loop)
		b.Shli(rAddr, rSlot, 3)
		b.Ld(rVal, rAddr, lay.base, 8)
		b.Beq(rVal, isa.Zero, claim)
		b.Addi(rSlot, rSlot, 1)
		b.Blt(rSlot, rNSl, loop)
		b.Li(rSlot, 0)
		b.Jmp(loop)
		b.Label(claim)
		b.St(rKey, rAddr, lay.base, 8)
	case kPush:
		// slot[tail++] = value; the tail word is the contended cursor.
		c.nextOperand(rVal)
		b.Ld(rTmp, isa.Zero, lay.tail, 8)
		b.Addi(rTmp, rTmp, 1)
		b.St(rTmp, isa.Zero, lay.tail, 8)
		b.Addi(rTmp, rTmp, -1)
		b.Shli(rTmp, rTmp, 3)
		b.St(rVal, rTmp, lay.slots, 8)
	case kPop:
		// v = slot[head++]; checksum += v. The loaded cursor feeds an
		// address, so RETCON must concretize it — the symbolic-repair
		// stress this op exists to generate.
		b.Ld(rTmp, isa.Zero, lay.head, 8)
		b.Addi(rTmp, rTmp, 1)
		b.St(rTmp, isa.Zero, lay.head, 8)
		b.Addi(rTmp, rTmp, -1)
		b.Shli(rTmp, rTmp, 3)
		b.Ld(rVal, rTmp, lay.slots, 8)
		b.Ld(rTmp2, isa.Zero, lay.check, 8)
		b.Add(rTmp2, rTmp2, rVal)
		b.St(rTmp2, isa.Zero, lay.check, 8)
	}
}

// verifier packages the final-state oracle over the sampled model.
func (w *Workload) verifier(layout []objLayout, model *buildModel) func(*mem.Image) error {
	rs := w.rs
	if len(rs.checks) == 0 {
		return nil
	}
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("%s: verify: %s", w.name, fmt.Sprintf(format, args...))
	}
	return func(img *mem.Image) error {
		for _, c := range rs.checks {
			o := &rs.objects[c.obj]
			lay := &layout[c.obj]
			switch c.kind {
			case CheckCells, CheckSum:
				adds, written := model.addSum[c.obj], model.written[c.obj]
				var wantSum, gotSum int64
				for cell := 0; cell < o.cells; cell++ {
					want := o.init + adds[cell]
					if written[cell] {
						want = mergeLow(o.init, o.writeSize, o.writeVal)
					}
					got := img.Read64(cellAddr(o, lay.base, cell))
					if c.kind == CheckCells && got != want {
						return fail("%s[%d] = %d, want %d (lost or phantom updates)", o.name, cell, got, want)
					}
					wantSum += want
					gotSum += got
				}
				if c.kind == CheckSum && gotSum != wantSum {
					return fail("sum(%s) = %d, want %d (lost updates)", o.name, gotSum, wantSum)
				}
			case CheckKeys:
				var got []int64
				for s := 0; s < o.slots; s++ {
					if v := img.Read64(lay.base + int64(s)*mem.WordSize); v != 0 {
						got = append(got, v)
					}
				}
				want := append([]int64(nil), model.keys[c.obj]...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != len(want) {
					return fail("%s holds %d keys, want %d", o.name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						return fail("%s key mismatch at %d: %d vs %d", o.name, i, got[i], want[i])
					}
				}
			case CheckBalanced:
				cnt, vsum := model.pushCnt[c.obj], model.pushSum[c.obj]
				if h := img.Read64(lay.head); h != cnt {
					return fail("%s head = %d, want %d", o.name, h, cnt)
				}
				if t := img.Read64(lay.tail); t != cnt {
					return fail("%s tail = %d, want %d", o.name, t, cnt)
				}
				if ck := img.Read64(lay.check); ck != vsum {
					return fail("%s checksum = %d, want %d (pops consumed the wrong values)", o.name, ck, vsum)
				}
				var slotSum int64
				for s := int64(0); s < cnt; s++ {
					slotSum += img.Read64(lay.slots + s*mem.WordSize)
				}
				if slotSum != vsum {
					return fail("%s slot sum = %d, want %d (lost pushes)", o.name, slotSum, vsum)
				}
				for s := cnt; s < int64(o.cap); s++ {
					if v := img.Read64(lay.slots + s*mem.WordSize); v != 0 {
						return fail("%s slot %d = %d past the tail", o.name, s, v)
					}
				}
			}
		}
		return nil
	}
}

// mergeLow stores the low size bytes of v into word (little-endian, at
// the cell base) — the model of a sub-word store the verifier uses.
func mergeLow(word int64, size uint8, v int64) int64 {
	if size == 8 {
		return v
	}
	mask := int64(1)<<(8*uint(size)) - 1
	return (word &^ mask) | (v & mask)
}
