package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

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

// Scheduler drives the machine's cycle loop. Implementations must be
// observationally invisible: for identical inputs every scheduler yields
// identical Results (cycle counts, per-category breakdowns, abort counts,
// RETCON aggregates) and identical trace output. The lockstep scheduler
// defines those semantics; the event scheduler is checked against it by
// the differential oracle tests.
type Scheduler interface {
	// Run simulates until every core halts. It returns an error when the
	// cycle watchdog expires (deadlock or livelock).
	Run(m *Machine) error
}

func newScheduler(k SchedKind) Scheduler {
	if k == SchedLockstep {
		return lockstepSched{}
	}
	return eventSched{}
}

// lockstepSched is the reference scheduler: every simulated cycle touches
// every core, exactly as the original fixed stepper did.
type lockstepSched struct{}

// interruptMask gates the lockstep loop's cooperative-interrupt poll to
// every 4096 cycles: one atomic load per 4096 iterations is invisible in
// the per-cycle budget, and a wall-clock abandon (the only caller of
// Interrupt) cares about milliseconds, not cycles. runEvent polls every
// interruptWindow cycles instead.
const interruptMask = 4096 - 1

func (lockstepSched) Run(m *Machine) error {
	for !m.allHalted() {
		if m.Now >= m.P.MaxCycles {
			return m.watchdogErr()
		}
		if m.Now&interruptMask == 0 && m.interrupted.Load() {
			return m.interruptedErr()
		}
		m.Step()
		if m.hookErr != nil {
			return m.hookErr
		}
	}
	return nil
}

// eventSched is the event-driven time-skip scheduler. Each core's next
// wake time is explicit (stall expiry; barrier waits and halts wake only
// through another core's execution), so the loop jumps Now from wake
// event to wake event — a cycle in which no core is due is never visited,
// and a core costs nothing between events. The skipped cycles are
// attributed lazily: settle() bulk-charges them to the core's pending
// wait category the moment its state is next observed (its own
// execution, a remote abort, a barrier release), reproducing the lockstep
// stepper's per-cycle accounting exactly — including the in-transaction
// busy/other accumulators that abort reattribution subtracts, and the
// core-ID-order tie-breaks within a cycle.
//
// A NACK wait is a wake condition too. Lockstep retries a NACKed access
// every NackRetry cycles, and each retry is an identical NACK until the
// vetoing holder's transaction ends (see unpark for why). So with no
// recorder attached, a NACKed core parks on the holder (Machine.waiters)
// instead of retrying, in every mode, and the holder's commit or abort
// wakes it at the retry slot where lockstep would first see the release
// (wakeWaiters). The retries it skipped are charged in bulk, one
// instruction and one NACK each, as settle charges skipped stall cycles;
// in LazyVB and RetCon each also trains the predictor on the NACKed
// block, charged as one bulk count. A recorder logs each NACK (and its
// training) at its own cycle, so recorded waits retry as lockstep does.
// A remote abort of a parked core unparks it first.
//
// A counted busy loop (isa.BusyLoop) is a timed wake as well. When a core
// reaches the loop's addi with a concrete counter, busyLoop runs the whole
// loop at once: it charges its instructions and stalls the core in
// CatBusy through the loop's last cycle, so the loop costs one execution
// and one wake instead of one visit per cycle. ALU ops and branches on
// concrete registers emit no events, so this holds with a recorder
// attached too. A remote abort and the watchdog can observe the core
// mid-loop; each first rebuilds the state lockstep has at that point
// (unwindBusyLoop).
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
type eventSched struct{}

// interruptWindow paces runEvent's cooperative-interrupt poll: it checks
// the flag once whenever at least this many simulated cycles have passed
// since the last check.
const interruptWindow = 1024

// parked marks a core with no timed wake (halted, or waiting at a barrier
// until a release rewrites its slot). It is the maximum wake time, so it
// lies beyond every watchdog bound and is never queued.
const parked = neverWakes

func (eventSched) Run(m *Machine) error {
	m.lazyAttr = true
	defer func() { m.lazyAttr = false }()
	// Entry check so an interrupt raised before Run (a deadline abandon
	// racing a pool handoff) fails even a run too short to reach its
	// first poll; runEvent polls every interruptWindow cycles after this.
	if m.interrupted.Load() {
		return m.interruptedErr()
	}
	start := m.Now
	err := m.runEvent()
	m.schedStats.EventCycles = m.Now - start
	return err
}

// runEvent is the event loop: it visits only the cycles at which some
// core is due, taking them from the wake queue, and executes the due cores
// in ascending ID order.
//
// The common cases stay inline: a core that continues next cycle sets its
// bit in the queue's soon mask, and a visited cycle reads that mask and
// the current wheel slot's occupancy bit. Only a cycle with nothing due
// next calls out to find the earliest occupied slot, and only a visit at
// the far set's minimum drains the far set.
//
// The preamble, run once at the start of Run, builds the wake table and
// queue from core state. It returns nil when every core has halted.
//
//retcon:hotpath per-cycle event loop; see TestAllocsPerCycleRegression
func (m *Machine) runEvent() error {
	// NACKed cores park on the vetoing transaction unless a recorder
	// would log each skipped retry (see the eventSched doc).
	park := m.rec == nil
	m.wq = wakeQueue{farMin: parked}
	q := &m.wq
	halted := 0
	n := len(m.Cores)
	wakes := m.wakes
	for _, c := range m.Cores {
		c.attributedUntil = m.Now
		switch {
		case c.halted:
			halted++
			wakes[c.ID] = parked
		case c.barrierWait:
			wakes[c.ID] = parked
		case c.stallUntil > m.Now:
			m.schedule(c.ID, c.stallUntil+1)
		default:
			m.schedule(c.ID, m.Now+1)
		}
	}
	polled := m.Now
	for halted < n {
		// Every queued wake lies after m.Now, so the next cycle to visit is
		// m.Now+1 when the soon mask is set, else the earlier of the first
		// occupied wheel slot and the far set's minimum.
		next := m.Now + 1
		if q.soon == 0 {
			next = min(q.nextSlot(m.Now), q.farMin)
		}
		if next > m.P.MaxCycles {
			// The next wake lies beyond the watchdog (or there is none at
			// all: every live core parked at a barrier that cannot release).
			// The lockstep machine would idle up to the bound and expire
			// there; report the identical failure.
			m.Now = m.P.MaxCycles
			for _, c := range m.Cores {
				m.unwindBusyLoop(c, m.Now)
			}
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
		if next == q.farMin {
			due |= q.drainFar(wakes, next)
		}

		for ; due != 0; due &= due - 1 {
			id := bits.TrailingZeros64(due)
			// Re-check the schedule at the core's turn: the bit may be stale
			// (the core was rescheduled after it was queued), and an earlier
			// core's execution this cycle may have aborted (and rescheduled)
			// it, exactly as under lockstep order. The wake slot is checked
			// before the core is even loaded — stale bits cost one array
			// read, not a cache miss on the Core.
			if wakes[id] != m.Now {
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
			m.exec(c)
			due |= m.dueNow // waiters woken for this cycle, all above id
			m.dueNow = 0
			switch {
			case c.halted:
				halted++
				wakes[id] = parked
			case c.barrierWait:
				wakes[id] = parked // woken by the release rescheduling it
			case park && c.nackAt == m.Now:
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

// unpark ends core c's NACK wait: it charges the retries lockstep ran at
// c's slots nackAt+k·NackRetry through cycle upTo and stalls c until the
// next slot. Each charged retry is one instruction and one NACK, and in
// LazyVB and RetCon one conflict observed on nackBlock, charged to the
// predictor as one bulk count; its cycles are conflict cycles, which
// settle charges with the rest of the stall.
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
	r := max(m.P.NackRetry, 1) // a NACK stalls through Now+NackRetry-1
	if k := (upTo - c.nackAt) / r; k > 0 {
		c.Stats.Instrs += k
		c.Stats.Nacks += k
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

// busyLoop runs the counted delay loop whose addi (in) is at core c's PC
// in one step. Lockstep runs its 2·max(v,1) instructions one per cycle,
// for a counter v, each charged to CatBusy; none of them emits an event or
// touches shared state. So busyLoop charges them all, leaves the counter
// (min(v,1)−1) and the PC (past the bgt) where the loop ends, and stalls
// the core in CatBusy through the loop's last cycle. settle and abort
// reattribution then account the loop as they account a load latency.
//
// It declines, and the addi executes normally, when the counter is
// symbolic (RETCON's bgt would then record a constraint per iteration) or
// so large that the wake time would overflow.
func (m *Machine) busyLoop(c *Core, in *isa.Instr) bool {
	v := c.Regs[in.Rd]
	if m.P.Mode == RetCon && c.Tx.Active && c.Ret.Regs[in.Rd].Valid || v >= (neverWakes-m.Now)/2 {
		return false
	}
	n := 2 * max(v, 1)
	c.Stats.Instrs += n - 1 // exec counted the addi
	m.schedStats.BusySkipped += n - 1
	c.Regs[in.Rd] = min(v, 1) - 1
	c.PC += 2
	c.addCycle(CatBusy)
	c.setStall(m.Now+n-1, CatBusy)
	c.loopEnd = c.stallUntil
	return true
}

// unwindBusyLoop puts core c, if the cycles through upTo leave it inside
// a loop busyLoop ran in one step, into the state lockstep has after
// stepping it through upTo. The rem = loopEnd−upTo instructions lockstep
// has not run yet are refunded; the counter is owed the ⌊rem/2⌋
// decrements still ahead of it; the PC is the addi when rem is even and
// the bgt when it is odd; and the stall ends at upTo, so the next cycle
// executes the loop's next instruction. Two places observe a core
// mid-loop and call it: a remote abort (which then rolls the registers
// and PC back anyway, but keeps the instruction count) and watchdog
// expiry (WatchdogError.PCs).
func (m *Machine) unwindBusyLoop(c *Core, upTo int64) {
	rem := c.loopEnd - upTo
	c.loopEnd = 0
	if rem <= 0 {
		return
	}
	head := c.PC - 2
	c.Stats.Instrs -= rem
	m.schedStats.BusySkipped -= rem
	c.Regs[c.instrs[head].Rd] += rem / 2
	c.PC = head + int(rem&1)
	c.stallUntil = upTo
}

// Timing-wheel geometry: one slot per cycle over a horizon that covers
// every common stall (NACK retries, abort backoffs, cache misses, DRAM
// with occupancy queuing). Longer wakes — long DRAM latencies, late
// abort backoffs, multi-thousand-cycle commit repairs — go to the far set.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wakeQueue is the event loop's wake queue. Every entry is a core mask:
//
//   - soon holds the cores due at Now+1, the common busy case;
//   - slots is a single-level timing wheel over the next wheelSize
//     cycles, indexed by cycle mod wheelSize, with an occupancy bitmap
//     (occ) for an O(words) search for the next occupied slot. Every
//     queued wake lies at most wheelSize cycles ahead, and the loop never
//     skips an occupied slot, so when a slot comes due all its cores
//     share that due cycle;
//   - far holds the cores whose wakes lie beyond the horizon, and farMin
//     is the earliest of those wakes. At farMin the loop drains far:
//     cores due then run, and the rest are queued again by their current
//     wake, so those now within the horizon move into the wheel.
//
// The queue lives on the Machine and is rebuilt by runEvent at the start
// of every run, so steady-state runs allocate nothing for it.
type wakeQueue struct {
	soon   uint64
	slots  [wheelSize]uint64
	occ    [wheelSize / 64]uint64
	far    uint64
	farMin int64
}

// push queues core id for cycle w, which lies after now.
func (q *wakeQueue) push(id int, w, now int64) {
	switch bit := uint64(1) << id; {
	case w == now+1:
		q.soon |= bit
	case w-now <= wheelSize:
		s := int(w) & wheelMask
		q.slots[s] |= bit
		q.occ[s>>6] |= 1 << (s & 63)
	default:
		q.far |= bit
		q.farMin = min(q.farMin, w)
	}
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

// drainFar empties the far set at cycle now, its minimum. It returns the
// cores due now and queues the rest again by their current wake, which
// also recomputes farMin exactly. A bit whose core has since been
// rescheduled is queued by its new wake (a duplicate of the bit that
// reschedule queued, which the masks absorb); one whose core is parked or
// already past is dropped.
func (q *wakeQueue) drainFar(wakes []int64, now int64) (due uint64) {
	far := q.far
	q.far, q.farMin = 0, parked
	for ; far != 0; far &= far - 1 {
		id := bits.TrailingZeros64(far)
		switch w := wakes[id]; {
		case w == now:
			due |= 1 << id
		case w > now && w != parked:
			q.push(id, w, now)
		}
	}
	return due
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
