package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
)

// neverWakes is the wake time of a core with no timed wake event; it is
// above any reachable MaxCycles, so it always trips the watchdog branch.
const neverWakes = int64(math.MaxInt64)

// SchedKind selects the machine's cycle-loop scheduler.
type SchedKind int

// Scheduler kinds.
const (
	// SchedEvent is the event-driven time-skip scheduler (the default):
	// when no core can execute this cycle, Now jumps straight to the
	// earliest wake event and the skipped cycles are bulk-attributed.
	SchedEvent SchedKind = iota
	// SchedLockstep is the cycle-by-cycle reference scheduler, retained
	// in-tree as the differential-testing oracle.
	SchedLockstep
)

// String returns the scheduler's flag name.
func (k SchedKind) String() string {
	switch k {
	case SchedEvent:
		return "event"
	case SchedLockstep:
		return "lockstep"
	}
	return fmt.Sprintf("sched(%d)", int(k))
}

// ParseSched parses a scheduler name: "event" or "lockstep".
func ParseSched(s string) (SchedKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "event", "":
		return SchedEvent, nil
	case "lockstep":
		return SchedLockstep, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler %q (want event or lockstep)", s)
}

// interruptMask gates the lockstep loop's cooperative-interrupt poll to
// every 4096 cycles: one atomic load per 4096 iterations is invisible in
// the per-cycle budget, and a wall-clock abandon (the only caller of
// Interrupt) cares about milliseconds, not cycles. runEvent polls every
// interruptWindow cycles instead.
const interruptMask = 4096 - 1

// runLockstep is the reference scheduler: every simulated cycle touches
// every core (step), exactly as the original fixed stepper did.
func (m *Machine) runLockstep() error {
	for !m.allHalted() {
		if m.Now >= m.P.MaxCycles {
			return m.watchdogErr()
		}
		if m.Now&interruptMask == 0 && m.interrupted.Load() {
			return m.interruptedErr()
		}
		m.step()
		if m.hookErr != nil {
			return m.hookErr
		}
	}
	return nil
}

// interruptWindow paces runEvent's cooperative-interrupt poll: it checks
// the flag once whenever at least this many simulated cycles have passed
// since the last check. It also caps the instructions one run interprets
// in a turn (runLocal), so a register-only loop still reaches the poll.
const interruptWindow = 1024

// parked marks a core with no timed wake (halted, or waiting at a barrier
// until a release rewrites its slot). It is the maximum wake time, so it
// lies beyond every watchdog bound and is never queued.
const parked = neverWakes

// runEvent is the event-driven time-skip scheduler. Each core's next
// wake time is explicit (stall expiry; barrier waits and halts wake only
// through another core's execution), so the loop jumps Now from wake
// event to wake event — a cycle in which no core is due is visited only
// as a lap of a wake beyond the timing wheel (see wakeQueue), and a core
// costs nothing between events. The skipped cycles are
// attributed lazily: settle() bulk-charges them to the core's pending
// wait category the moment its state is next observed (its own
// execution, a remote abort, a barrier release), reproducing the lockstep
// stepper's per-cycle accounting exactly — including the in-transaction
// busy/other accumulators that abort reattribution subtracts, and the
// core-ID-order tie-breaks within a cycle.
//
// A NACK wait is a wake condition too. Lockstep retries a NACKed access
// every NackRetry cycles, and each retry is an identical NACK until the
// vetoing holder's transaction ends (see unpark for why). So a NACKed
// core parks on the holder (Machine.waiters) instead of retrying, in
// every mode, and the holder's commit or abort wakes it at the retry
// slot where lockstep would first see the release (wakeWaiters). The
// retries it skipped are charged in bulk, one instruction and one NACK
// each, as settle charges skipped stall cycles; in LazyVB and RetCon each
// also trains the predictor on the NACKed block, charged as one bulk
// count. A recorder logs the whole wait as one event when it ends, which
// both schedulers reach at the same cycle (endNackWait). A remote abort
// of a parked core unparks it first.
//
// A core's turn does not end at its one instruction. After an ALU op,
// branch, jmp, nop, completed load or store, or TXBEGIN, the core keeps
// executing in the same turn while its next instruction is local — one
// that touches only its own registers and PC and emits no event — one
// cycle each, and then stalls in CatBusy through the last of them
// (runLocal). A counted busy loop is one O(1) step of such a run. So the
// loop takes one turn per shared access rather than one per instruction.
// Nothing another core does can read those registers, so no other core
// can tell the instructions ran early. A run stops at MaxCycles and
// after interruptWindow instructions, so the only observer of a core
// inside a run is a remote abort, which restores the registers and PC
// anyway and refunds the instructions lockstep had not yet run
// (refundRun).
//
// Bookkeeping: every core has exactly one wake time, held in the
// Machine.wakes array indexed by core ID (rewritten in place by mid-cycle
// reschedules — remote aborts, barrier releases — so there are no stale
// queue entries to filter at the source of truth). The wake queue on top
// of it (wakeQueue) holds 64-bit core masks, one bit per core: Params
// caps a machine at 64 cores. A mask bit is only a hint that the core may
// be due; runEvent checks it against Machine.wakes at the core's turn, so
// a reschedule just queues the new wake and leaves the old bit to be
// dropped when its cycle comes. Walking a due mask from its lowest bit up
// is ascending core-ID order, lockstep's order within a cycle, with no
// sort or merge.
//
// The common cases stay inline: a core that continues next cycle sets its
// bit in the queue's soon mask, and a visited cycle reads that mask and
// the current wheel slot's occupancy bit. Only a cycle with nothing due
// next calls out to find the earliest occupied slot.
//
// The preamble, run once at the start of Run, builds the wake table and
// queue from core state. It first checks the interrupt flag, so an
// interrupt raised before Run (a deadline abandon racing a pool handoff)
// fails even a run too short to reach its first poll. It returns nil when
// every core has halted.
//
//retcon:hotpath per-cycle event loop; see TestAllocsPerCycleRegression
func (m *Machine) runEvent() error {
	if m.interrupted.Load() {
		return m.interruptedErr()
	}
	m.wq = wakeQueue{}
	q := &m.wq
	n := len(m.Cores)
	wakes := m.wakes
	for _, c := range m.Cores {
		c.attributedUntil = m.Now
		switch {
		case c.halted, c.barrierWait:
			wakes[c.ID] = parked
		case c.stallUntil > m.Now:
			m.schedule(c.ID, c.stallUntil+1)
		default:
			m.schedule(c.ID, m.Now+1)
		}
	}
	polled := m.Now
	for m.haltedCores < n {
		// Every queued wake lies after m.Now, so the next cycle to visit is
		// m.Now+1 when the soon mask is set, else the first occupied wheel
		// slot.
		next := m.Now + 1
		if q.soon == 0 {
			next = q.nextSlot(m.Now)
		}
		if next > m.P.MaxCycles {
			// The next wake lies beyond the watchdog (or there is none at
			// all: every live core parked at a barrier that cannot release).
			// The lockstep machine would idle up to the bound and expire
			// there; report the identical failure.
			m.Now = m.P.MaxCycles
			return m.watchdogErr()
		}
		m.Now = next
		due := q.soon // empty unless next is the old m.Now+1
		q.soon = 0
		if s := int(next) & wheelMask; q.occ[s>>6]&(1<<(s&63)) != 0 {
			due |= q.slots[s]
			q.slots[s] = 0
			q.occ[s>>6] &^= 1 << (s & 63)
		}

		for ; due != 0; due &= due - 1 {
			id := bits.TrailingZeros64(due)
			// Re-check the schedule at the core's turn: the bit may be stale
			// (the core was rescheduled after it was queued), and an earlier
			// core's execution this cycle may have aborted (and rescheduled)
			// it, exactly as under lockstep order. The wake slot is checked
			// before the core is even loaded — stale bits cost one array
			// read, not a cache miss on the Core. A bit whose wake falls on
			// a later lap of this slot goes back into it.
			if w := wakes[id]; w != m.Now {
				if w > m.Now && (w-m.Now)&wheelMask == 0 && w != parked {
					q.push(id, w, m.Now)
				}
				continue
			}
			c := m.Cores[id]
			if c.halted || c.barrierWait {
				continue
			}
			if m.Now <= c.stallUntil {
				// Re-stalled after scheduling (defensive: abort reschedules).
				m.schedule(id, c.stallUntil+1)
				continue
			}
			m.settle(c, m.Now-1)
			c.attributedUntil = m.Now
			m.execID = id
			if m.exec(c) {
				m.runLocal(c)
			}
			due |= m.dueNow // waiters woken for this cycle, all above id
			m.dueNow = 0
			switch {
			case c.halted:
				wakes[id] = parked
			case c.barrierWait:
				wakes[id] = parked // woken by the release rescheduling it
			case c.nackAt == m.Now:
				// NACKed: wait on the vetoing transaction instead of
				// retrying; wakeWaiters reschedules the core when it ends.
				c.parkedOn = m.nackHolder
				m.waiters[m.nackHolder] |= 1 << id
				wakes[id] = parked
			case c.stallUntil > m.Now:
				m.schedule(id, c.stallUntil+1)
			default:
				wakes[id] = m.Now + 1
				q.soon |= 1 << id
			}
		}
		if m.syncDirty {
			m.releaseBarrier()
		}
		if m.hookErr != nil {
			return m.hookErr
		}
		if m.Now-polled >= interruptWindow {
			if m.interrupted.Load() {
				return m.interruptedErr()
			}
			polled = m.Now
		}
	}
	return nil
}

// schedule sets core id's wake to cycle w (after m.Now) and queues it.
// Every timed wake goes through here: the event loop's own reschedules,
// remote aborts and barrier releases.
func (m *Machine) schedule(id int, w int64) {
	m.wakes[id] = w
	m.wq.push(id, w, m.Now)
}

// wakeWaiters ends the NACK waits parked on core h, whose transaction
// ends (commits or aborts) now, during the executing core's turn. A
// waiter resumes at its next retry slot: one at the current cycle runs
// this cycle only if the waiter's turn comes after the executing core's,
// as lockstep would see the release then; one before it was a NACK.
//
//retcon:hotpath runs at every commit and abort
func (m *Machine) wakeWaiters(h int) {
	for w := m.waiters[h]; w != 0; w &= w - 1 {
		id := bits.TrailingZeros64(w)
		c := m.Cores[id]
		m.unpark(c, m.steppedThrough(id))
		if next := c.stallUntil + 1; next == m.Now {
			m.wakes[id] = next
			m.dueNow |= 1 << id
		} else {
			m.schedule(id, next)
		}
	}
}

// steppedThrough returns the last cycle lockstep has stepped core id
// through at this point of the executing core's turn: the current cycle
// when id is lower, the one before otherwise.
func (m *Machine) steppedThrough(id int) int64 {
	if id < m.execID {
		return m.Now
	}
	return m.Now - 1
}

// unpark takes core c off the waiters of the holder it parked on. Its
// NACK wait stays open, for its next retry or an abort to end: unpark
// charges the retries lockstep ran at c's slots nackAt+k·NackRetry
// through cycle upTo and stalls c until the next slot. Each charged retry is one instruction and one NACK of c's
// wait, and in LazyVB and RetCon one conflict observed on nackBlock,
// charged to the predictor as one bulk count; its cycles are conflict
// cycles, which settle charges with the rest of the stall.
//
// Every skipped retry is an identical NACK, because the holder that
// vetoed c keeps vetoing until its transaction ends: its spec bits only
// grow within a transaction, and it cannot start tracking a block it
// holds spec bits on; directory presence is sticky, so evictions never
// drop it from WriteTargets/ReadTargets; another requester can
// invalidate or downgrade it only by getting past its veto, which aborts
// it; and both timestamps are fixed. The retry itself changes nothing
// the next one sees (see memAccess).
//
// The training cannot change a retry's path either, so c never needs to
// wake where its predictor starts tracking the block. A load whose
// block the predictor tracks issues the same memAccess on the same block
// as a plain load, so it is NACKed alike; stores never consult the
// predictor; and re-pinning a value intersects a constraint with the
// point it already holds. Only c's own execution reads its predictor or
// trains it down, and a remote abort's own training (on the blamed
// block) runs after this charge and commutes with it. The block's slot
// exists since c's first NACK, so the bulk count never grows the table.
func (m *Machine) unpark(c *Core, upTo int64) {
	r := m.P.NackRetry // a NACK stalls through Now+NackRetry-1
	if k := (upTo - c.nackAt) / r; k > 0 {
		c.Stats.Instrs += k
		c.Stats.Nacks += k
		c.waitNacks += k
		c.nackAt += k * r
		m.schedStats.ParkedRetries += k
		if m.P.Mode != Eager {
			c.Pred.ObserveConflicts(c.nackBlock, k)
		}
	}
	c.stallUntil = c.nackAt + r - 1
	m.waiters[c.parkedOn] &^= 1 << c.ID
	c.parkedOn = -1
}

// runLocal continues core c's turn after exec completed an instruction
// that opens a run: while c's next instruction is local, c executes it in
// this same turn, one cycle each, starting the cycle after the opening
// instruction completes. A local instruction touches only c's registers
// and PC and emits no event: any ALU op, branch, jmp or nop, except that
// inside a RetCon transaction an ALU op qualifies only if it pins no
// symbolic input (its inputs are concrete, or it propagates its one
// symbolic input) and a branch only if both operands are concrete, since
// a pin or a branch constraint can overflow, abort or emit. A counted
// busy loop (isa.BusyLoop) with a concrete counter is one O(1) step of
// the run (foldBusyLoop).
//
// The run's instructions are charged at once and the core stalls in
// CatBusy through the run's last cycle, so settle and abort
// reattribution account them as they account a load latency. A run never
// executes past MaxCycles, so watchdog expiry finds every core where
// lockstep leaves it, and it interprets at most interruptWindow
// instructions, so an endless register-only loop still returns to the
// loop's interrupt poll. A remote abort is then the only observer of a
// core inside a run; it restores registers and PC anyway and takes back
// the instructions lockstep had not run yet (refundRun).
//
//retcon:hotpath runs after every turn that can open a run; see TestAllocsPerCycleRegression
func (m *Machine) runLocal(c *Core) {
	from := max(c.stallUntil, m.Now) // the cycle before the run's first instruction
	t := from
	sym := m.P.Mode == RetCon && c.Tx.Active
	regs := &c.Ret.Regs
	end := m.P.MaxCycles
run:
	for steps := 0; t < end && steps < interruptWindow && uint(c.PC) < uint(len(c.instrs)); steps++ {
		in := &c.instrs[c.PC]
		switch op := in.Op; {
		case op == isa.Nop:
			c.PC++
		case op == isa.Jmp:
			c.PC = in.Target
		case op.IsBranch():
			if sym && (regs[in.Rs1].Valid || regs[in.Rs2].Valid) {
				break run
			}
			m.execBranch(c, in)
		case op >= isa.Li && op <= isa.MulF:
			if in.BusyLoopHead() && !(sym && regs[in.Rd].Valid) && c.Regs[in.Rd] != math.MinInt64 {
				t += foldBusyLoop(c, in, end-t)
				continue
			}
			if sym && !propagatesLocally(regs, in) {
				break run
			}
			m.execALU(c, in)
			c.PC++
		default:
			break run
		}
		t++
	}
	if n := t - from; n > 0 {
		c.Stats.Instrs += n
		m.schedStats.RunInstrs += n
		c.setStall(t, CatBusy)
		c.runFrom, c.runTo = from, t
	}
}

// propagatesLocally reports whether ALU op in, inside a RetCon
// transaction, leaves every symbolic input unpinned (see propagateSym):
// mov, addi and rsubi always do, add and sub unless both inputs are
// symbolic, every other op only on concrete inputs.
func propagatesLocally(regs *[isa.NumRegs]core.SymVal, in *isa.Instr) bool {
	switch s1, s2 := regs[in.Rs1].Valid, regs[in.Rs2].Valid; in.Op {
	case isa.Mov, isa.Addi, isa.Rsubi:
		return true
	case isa.Add, isa.Sub:
		return !s1 || !s2
	default:
		return !s1 && !s2
	}
}

// foldBusyLoop runs the counted busy loop whose addi (in) is at core c's
// PC, or its first room instructions when the whole loop would not fit,
// and returns the number of instructions it ran. Lockstep runs the loop's
// 2·max(v,1) instructions one per cycle, for a counter v: after j of them
// the addi has run ⌈j/2⌉ times, and the PC is the bgt when j is odd, the
// addi when j is even, and past the bgt once the loop ends. The caller
// excludes v = MinInt64, whose first decrement wraps.
func foldBusyLoop(c *Core, in *isa.Instr, room int64) int64 {
	v := c.Regs[in.Rd]
	j := room
	if half := max(v, 1); half <= room/2 {
		j = 2 * half // the whole loop fits
		c.PC += 2
	} else {
		c.PC += int(j & 1)
	}
	c.Regs[in.Rd] = v - (j+1)/2
	return j
}

// refundRun takes back, from core c's last run, the instructions after
// cycle upTo, which lockstep has not executed yet when a remote abort
// observes c there: those charged after max(upTo, the cycle before the
// run's first instruction). A run that ended by upTo owes nothing.
func (m *Machine) refundRun(c *Core, upTo int64) {
	if n := c.runTo - max(upTo, c.runFrom); n > 0 {
		c.Stats.Instrs -= n
		m.schedStats.RunInstrs -= n
	}
	c.runTo = 0
}

// Timing-wheel geometry: one slot per cycle over a horizon that covers
// every common stall (NACK retries, abort backoffs, cache misses, DRAM
// with occupancy queuing). A longer wake — a long DRAM latency, a late
// abort backoff, a multi-thousand-cycle commit repair — waits in its slot
// for as many laps as it needs.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wakeQueue is the event loop's wake queue. Every entry is a core mask:
//
//   - soon holds the cores due at Now+1, the common busy case;
//   - slots is a single-level timing wheel indexed by cycle mod
//     wheelSize, with an occupancy bitmap (occ) for an O(words) search
//     for the next occupied slot. The loop never skips an occupied slot,
//     so it visits each slot once per lap. A wake more than wheelSize
//     cycles ahead is queued in its slot all the same: the visits on
//     earlier laps find the core not due and queue its bit again, so it
//     costs one visited cycle per lap.
//
// The queue lives on the Machine and is rebuilt by runEvent at the start
// of every run, so steady-state runs allocate nothing for it.
type wakeQueue struct {
	soon  uint64
	slots [wheelSize]uint64
	occ   [wheelSize / 64]uint64
}

// push queues core id for cycle w, which lies after now.
func (q *wakeQueue) push(id int, w, now int64) {
	bit := uint64(1) << id
	if w == now+1 {
		q.soon |= bit
		return
	}
	s := int(w) & wheelMask
	q.slots[s] |= bit
	q.occ[s>>6] |= 1 << (s & 63)
}

// nextSlot returns the cycle of the first occupied wheel slot after now,
// or parked when the wheel is empty.
func (q *wakeQueue) nextSlot(now int64) int64 {
	// First occupied slot in circular order after now. The +1 iteration
	// re-covers the starting word's low bits after a full wrap.
	start := int(now+1) & wheelMask
	wi := start >> 6
	word := q.occ[wi] &^ (1<<(start&63) - 1)
	for k := 0; k <= wheelSize/64; k++ {
		if word != 0 {
			idx := wi<<6 + bits.TrailingZeros64(word)
			return now + 1 + int64((idx-start)&wheelMask)
		}
		wi = (wi + 1) & (wheelSize/64 - 1)
		word = q.occ[wi]
	}
	return parked
}

// settle bulk-attributes core c's unaccounted cycles through cycle upTo
// to its current wait category — the lazy equivalent of what the lockstep
// stepper charges one cycle at a time, including the in-transaction
// busy/other accumulators that abort reattribution depends on. It is a
// no-op outside the event scheduler (attributedUntil is maintained only
// under lazy attribution) and on fully-settled cores.
//
//retcon:hotpath runs at every lazy-attribution observation point
func (m *Machine) settle(c *Core, upTo int64) {
	n := upTo - c.attributedUntil
	if n <= 0 {
		return
	}
	cat := c.stallCat
	if c.barrierWait {
		cat = CatBarrier
	}
	c.chargeCycles(cat, n)
	c.attributedUntil = upTo
}
