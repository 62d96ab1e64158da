package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
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
// Interrupt) cares about milliseconds, not cycles. runEvent and runDense
// poll at their denseWindow boundaries instead.
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
// vetoing holder's transaction ends (see unpark for why). So in eager
// mode with no recorder attached, a NACKed core parks on the holder
// (Machine.waiters) instead of retrying, and the holder's commit or
// abort wakes it at the retry slot where lockstep would first see the
// release (wakeWaiters). The retries it skipped are charged in bulk, one
// instruction and one NACK each, as settle charges skipped stall cycles.
// Elsewhere a retry is observable — LazyVB and RetCon train the predictor
// on every NACK, which can change the retry's path, and a recorder logs
// each NACK at its own cycle — so those waits retry as lockstep does. A remote abort of a parked core, and a hand-off to the
// dense loop, unpark it first.
//
// Bookkeeping: every core has exactly one wake time, held in the dense
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
// Dense phases — every live core executing nearly every cycle, so there is
// nothing to skip — are where an event queue can only lose: it pays wake
// writes, queue churn and lazy-attribution bookkeeping per core per
// cycle and skips nothing in return (measured 0.76–0.80× lockstep on
// genome@32, whose exec density is 0.76 instructions per live core-cycle,
// versus 2–4× wins on sparse runs at density ≤ 0.3). runEvent therefore
// samples exec density over windows of visited cycles and hands such
// phases to runDense, a lockstep-equivalent inner loop over the live-core
// list with eager attribution and none of the queue machinery, which hands
// back when density drops. The switch triggers depend only on simulated
// state, so scheduling stays deterministic, and runEvent's entry preamble
// rebuilds the wake table and queue from core state, so the hand-offs are
// invisible in the Results (the differential oracle and fuzz corpus check
// this).
type eventSched struct{}

// Dense-phase detection: the event loop samples exec density — exec calls
// per live core-cycle, counting skipped cycles in the denominator — over
// windows of denseWindow cycles and switches to the dense inner loop above
// denseEnterPct, back below denseExitPct. The hysteresis gap damps
// oscillation (a switch costs one O(cores) settle/rebuild pass); the
// thresholds bracket the measured crossover: runs where the event queue
// wins big sit at ≤30% density, the regressed dense runs at ≥68%.
const (
	denseWindow   = 1024
	denseEnterPct = 55
	denseExitPct  = 40
)

// parked marks a core with no timed wake (halted, or waiting at a barrier
// until a release rewrites its slot). It is the maximum wake time, so it
// lies beyond every watchdog bound and is never queued.
const parked = neverWakes

func (eventSched) Run(m *Machine) error {
	m.lazyAttr = true
	defer func() { m.lazyAttr = false }()
	// Entry check so an interrupt raised before Run (a deadline abandon
	// racing a pool handoff) fails even a run too short to reach its
	// first window boundary; the loops poll at the boundaries after this.
	if m.interrupted.Load() {
		return m.interruptedErr()
	}
	// NACKed cores park only where a skipped retry is unobservable (see
	// the eventSched doc).
	park := m.P.Mode == Eager && m.rec == nil
	for {
		spanStart := m.Now
		done, err := m.runEvent(park)
		m.schedStats.EventCycles += m.Now - spanStart
		if done || err != nil {
			return err
		}
		// The event loop detected a dense phase. Unpark every NACK waiter
		// (charging its retries through the current cycle and stalling it
		// to its next slot), settle every live core's lazy attribution
		// through the current cycle (each is either fully attributed — it
		// executed this cycle — or mid-wait with its wait category still
		// pending, exactly what settle charges), then run eagerly
		// attributed dense cycles until the phase ends.
		m.schedStats.Handoffs++
		for _, c := range m.Cores {
			if c.parkedOn >= 0 {
				m.unpark(c, m.Now)
			}
			if !c.halted {
				m.settle(c, m.Now)
			}
		}
		m.lazyAttr = false
		spanStart = m.Now
		done, err = m.runDense()
		m.schedStats.DenseCycles += m.Now - spanStart
		m.lazyAttr = true
		if done || err != nil {
			return err
		}
	}
}

// runDense is the dense-phase inner loop: lockstep-equivalent stepping
// (every cycle visited, eager attribution) minus lockstep's overheads — it
// iterates a compacted live-core list instead of branching over halted
// cores, inlines the per-core dispatch, and bulk-skips the occasional
// cycle in which no live core can execute (charging the idle span exactly
// as lockstep's per-cycle attribution would). It returns done=true when
// every core has halted, done=false when exec density falls below the exit
// threshold and the caller should resume the event loop.
//
//retcon:hotpath per-cycle inner loop; see TestAllocsPerCycleRegression
func (m *Machine) runDense() (done bool, err error) {
	live := m.live[:0]
	defer func() { m.live = live }()
	for _, c := range m.Cores {
		if !c.halted {
			live = append(live, c)
		}
	}
	winStart, winExec := m.Now, int64(0)
	for len(live) > 0 {
		if m.Now >= m.P.MaxCycles {
			return false, m.watchdogErr()
		}
		m.Now++
		executed := int64(0)
		for _, c := range live {
			switch {
			case c.barrierWait:
				c.addCycle(CatBarrier)
			case m.Now <= c.stallUntil:
				c.addCycle(c.stallCat)
			default:
				m.exec(c)
				executed++
			}
		}
		if m.syncDirty {
			// A HALT always sets syncDirty (it changes the barrier-release
			// condition), so this is also the only cycle the live list can
			// shrink — the per-exec halt check stays off the hot path.
			m.releaseBarrier()
			keep := live[:0]
			for _, c := range live {
				if !c.halted {
					keep = append(keep, c)
				}
			}
			live = keep
		}
		if m.hookErr != nil {
			return false, m.hookErr
		}
		winExec += executed
		if executed == 0 && len(live) > 0 {
			// Idle cycle: nothing can execute before the earliest stall
			// expiry (a barrier wait ends only through another core's
			// execution, so if every live core barrier-waits the machine
			// idles to the watchdog, as lockstep would). Charge the idle
			// span in bulk and jump.
			nextWake := neverWakes
			for _, c := range live {
				if !c.barrierWait && c.stallUntil < nextWake {
					nextWake = c.stallUntil
				}
			}
			if k := min(nextWake, m.P.MaxCycles) - m.Now; k > 0 {
				for _, c := range live {
					if c.barrierWait {
						c.chargeCycles(CatBarrier, k)
					} else {
						c.chargeCycles(c.stallCat, k)
					}
				}
				m.Now += k
			}
		}
		if m.Now-winStart >= denseWindow {
			if m.interrupted.Load() {
				return false, m.interruptedErr()
			}
			if winExec*100 < denseExitPct*(m.Now-winStart)*int64(len(live)) {
				return false, nil
			}
			winStart, winExec = m.Now, 0
		}
	}
	return true, nil
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
// The preamble rebuilds the wake table and queue from core state alone, so
// the loop can be entered both at the start of a run and after a dense
// phase (cores may then be mid-stall or parked at a barrier). It returns
// done=true when every core has halted, done=false to hand a dense phase
// to runDense.
//
//retcon:hotpath per-cycle event loop; see TestAllocsPerCycleRegression
func (m *Machine) runEvent(park bool) (done bool, err error) {
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
	winStart, winExec := m.Now, int64(0)
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
			return false, m.watchdogErr()
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
			winExec++
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
			return false, m.hookErr
		}
		if m.Now-winStart >= denseWindow {
			if m.interrupted.Load() {
				return false, m.interruptedErr()
			}
			if halted < n && winExec*100 >= denseEnterPct*(m.Now-winStart)*int64(n-halted) {
				return false, nil
			}
			winStart, winExec = m.Now, 0
		}
	}
	return true, nil
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
// next slot. Each charged retry is one instruction and one NACK; its
// cycles are conflict cycles, which settle charges with the rest of the
// stall.
//
// Every skipped retry is an identical NACK, because the holder that
// vetoed c keeps vetoing until its transaction ends: its spec bits only
// grow within a transaction; directory presence is sticky, so evictions
// never drop it from WriteTargets/ReadTargets; another requester can
// invalidate or downgrade it only by getting past its veto, which aborts
// it; and both timestamps are fixed. The retry itself changes nothing: a
// NACKed miss reuses its memoized probe, and a NACKed upgrade re-stamps a
// line that is already the MRU line of its L1 set, leaving LRU order as
// it was.
func (m *Machine) unpark(c *Core, upTo int64) {
	r := max(m.P.NackRetry, 1) // a NACK stalls through Now+NackRetry-1
	if k := (upTo - c.nackAt) / r; k > 0 {
		c.Stats.Instrs += k
		c.Stats.Nacks += k
		c.nackAt += k * r
		m.schedStats.ParkedRetries += k
	}
	c.stallUntil = c.nackAt + r - 1
	m.waiters[c.parkedOn] &^= 1 << c.ID
	c.parkedOn = -1
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
//   - soon holds the cores due at Now+1, the dense busy case;
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
// The queue lives on the Machine and is rebuilt by runEvent on every
// entry, so steady-state runs allocate nothing for it.
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
