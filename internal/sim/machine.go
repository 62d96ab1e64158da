package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Core is one simulated in-order processor. Its cache hierarchy,
// transactional state, RETCON state and predictor are held by value: a
// cache probe or conflict check reaches them without a pointer hop, and
// resetFor reconfigures each in place (the zero value of each is ready
// for its reset method).
type Core struct {
	ID   int //retcon:reset-keep identity, assigned once at construction
	Prog *isa.Program
	// instrs caches Prog.Instrs: instruction fetch is once per simulated
	// cycle, and the extra indirection through Prog costs real time there.
	instrs []isa.Instr
	PC     int
	Regs   [isa.NumRegs]int64

	Hier cache.Hierarchy
	Tx   htm.Tx
	Ret  core.State
	Pred htm.Predictor

	pendingTS int64 // timestamp of the current transaction attempt chain

	halted      bool
	barrierWait bool
	stallUntil  int64 // core is stalled while Now <= stallUntil
	stallCat    Category

	// attributedUntil is the last cycle this core has accounted for under
	// the event scheduler's lazy attribution (its wake time lives in the
	// dense Machine.wakes array; see sched.go). The lockstep scheduler
	// attributes eagerly and ignores it.
	attributedUntil int64

	// nackAt is the cycle of the core's last executed NACK and nackBlock
	// the block it was NACKed on; its retries fall at nackAt + k·NackRetry.
	// parkedOn is the core whose transaction the event loop has parked
	// this one on (-1 when not parked): a parked core is woken when that
	// transaction ends, and the retries it skipped meanwhile are charged
	// in bulk, with their predictor training on nackBlock (see unpark).
	nackAt    int64
	nackBlock int64
	parkedOn  int

	// runFrom and runTo bound the last run of local instructions the
	// event loop ran ahead on this core (see runLocal): its instructions
	// fall at cycles runFrom+1 through runTo. A remote abort that observes
	// a cycle before runTo refunds the rest (refundRun).
	runFrom, runTo int64

	// nackWaitSince is the cycle the core's current pending access was
	// first NACKed (0 when no NACK wait is in progress), waitHolder the
	// core whose transaction vetoed that first NACK, and waitNacks the
	// NACKs of the wait so far, executed or charged in bulk. The wait ends
	// when the access completes or its attempt aborts (endNackWait).
	nackWaitSince int64
	waitHolder    int
	waitNacks     int64

	Stats  CoreStats
	RetAgg RetconAgg
}

// Machine is the simulated multiprocessor.
type Machine struct {
	P     Params
	Mem   *mem.Image
	Dir   *coherence.Directory
	Cores []*Core
	Now   int64

	tsCounter      int64
	barrierArrived int
	// haltedCores counts the cores that have executed HALT this run
	// (exec increments it), so the schedulers' termination tests and the
	// barrier release compare against it instead of scanning the cores.
	haltedCores int
	//retcon:reset-keep per-request scratch; coherentRequest truncates it at every use
	targetsBuf []int
	//retcon:reset-keep per-request scratch; coherentRequest writes it before returning a NACK
	nackHolder int // the core whose transaction vetoed the last NACKed request
	// rec is the attached structured event recorder (nil when recording
	// is off — the only cost the disabled path pays is that nil check).
	rec *telemetry.Recorder
	// metrics is the run's metric registry: abort-cause counts and the
	// latency histograms snapshotted into Result.Metrics. Everything in
	// it is a pure function of (spec, params, seed) — never of the
	// scheduler — so Results stay byte-identical across schedulers.
	metrics MetricsAgg
	// schedStats counts the event scheduler's work: the cycles its loop
	// covered and what it charged in bulk. Deliberately NOT part of
	// Result: it depends on the scheduler, and Results must not.
	schedStats SchedStats

	commitHook CommitObserver
	hookErr    error
	lazyAttr   bool // event scheduler active: stall/barrier cycles attribute lazily
	execID     int  // ID of the core currently executing (valid under lazyAttr)
	// wakes is the event scheduler's per-core wake table: one slot per
	// core holding its next wake cycle (parked when none). Mid-cycle
	// reschedules (remote aborts, barrier releases) overwrite the victim's
	// slot and queue the new wake through schedule.
	wakes []int64
	// wq is the event loop's wake queue of core masks (see wakeQueue),
	// kept on the Machine so the loop allocates nothing.
	//retcon:reset-keep runEvent rebuilds it from core state at the start of every run
	wq wakeQueue
	// waiters holds, per core, the mask of cores parked on its
	// transaction (see wakeWaiters). Only runEvent parks cores; the end
	// of that transaction, or a remote abort of the waiter, unparks them.
	waiters []uint64
	// dueNow collects waiters woken for the current cycle after the
	// executing core's turn; runEvent merges it into the due mask.
	dueNow uint64
	// allCores holds every core ever constructed for this machine; Cores
	// aliases its prefix, so a core-count shrink does not discard the
	// higher cores' allocations for a later grow.
	allCores []*Core
	// syncDirty is set when an executed instruction may have changed the
	// barrier-release condition (a BARRIER arrival or a HALT); the release
	// check runs only on such cycles instead of every cycle.
	syncDirty bool
	// interrupted is the cooperative-interrupt flag: Interrupt (callable
	// from any goroutine — the one concession to cross-goroutine state in
	// this otherwise single-goroutine machine) sets it, and the schedulers
	// poll it at their existing window boundaries, far off the per-cycle
	// hot path. See Interrupt.
	interrupted atomic.Bool
}

// New builds a machine running the given per-core programs over the given
// memory image. len(progs) must equal p.Cores. The coherence directory is
// sized densely over the image's block range, so every simulated access
// must target the image (out-of-image accesses fail loudly in both the
// directory and the image itself).
func New(p Params, img *mem.Image, progs []*isa.Program) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(p, img, progs); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rebuilds the machine in place for a fresh run: after a successful
// Reset the machine is observationally identical to sim.New(p, img, progs)
// — same cycle counts, statistics, and trace output — but reuses the
// previous run's allocations (directory array, cache line arrays, undo
// logs, spec sets, RETCON buffers, predictor tables, scheduler buffers)
// wherever the new configuration's geometry allows. Grid harnesses keep
// one machine per worker and Reset it between runs instead of
// reconstructing the world per run.
//
// Reset scrubs ALL run state: core registers/PCs/stalls, transactional and
// symbolic state, predictor training, cache contents, directory entries
// and memory-controller queue state, timestamps, and the commit observer
// and trace writer (reinstall them after Reset if needed).
func (m *Machine) Reset(p Params, img *mem.Image, progs []*isa.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(progs) != p.Cores {
		return fmt.Errorf("sim: %d programs for %d cores", len(progs), p.Cores)
	}
	for _, prog := range progs {
		if err := prog.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	m.P = p
	m.Mem = img
	if m.Dir == nil {
		m.Dir = coherence.New(p.Cores, img.Blocks(), p.latencies())
	} else {
		m.Dir.Reset(p.Cores, img.Blocks(), p.latencies())
	}
	specCap := p.SpecCapacity
	if p.IdealUnlimited {
		specCap = 1 << 30
	}
	retCfg := p.retconConfig()
	// allCores retains every core ever constructed: a reuse sequence that
	// shrinks the core count and later grows it again gets its old cores
	// (and their cache/undo/buffer allocations) back instead of fresh ones.
	for i := 0; i < p.Cores; i++ {
		if i == len(m.allCores) {
			m.allCores = append(m.allCores, &Core{ID: i})
		}
		m.allCores[i].resetFor(progs[i], specCap, retCfg, p)
	}
	m.Cores = m.allCores[:p.Cores]
	if cap(m.wakes) < p.Cores {
		m.wakes = make([]int64, p.Cores)
	}
	m.wakes = m.wakes[:p.Cores]
	if cap(m.waiters) < p.Cores {
		m.waiters = make([]uint64, p.Cores)
	}
	m.waiters = m.waiters[:p.Cores]
	clear(m.waiters)
	m.dueNow = 0
	m.Now = 0
	m.tsCounter = 0
	m.barrierArrived = 0
	m.haltedCores = 0
	m.rec = nil
	m.metrics = MetricsAgg{}
	m.schedStats = SchedStats{}
	m.commitHook = nil
	m.hookErr = nil
	m.lazyAttr = false
	m.execID = 0
	m.syncDirty = false
	m.interrupted.Store(false)
	return nil
}

// Interrupt requests a cooperative abort of the current (or next) Run.
// It is the ONLY Machine method that is safe to call from another
// goroutine: it sets an atomic flag that the schedulers poll (the event
// loop every interruptWindow simulated cycles, lockstep every 4096), so
// a live machine unwinds within microseconds and Run returns an
// *InterruptedError. A hard hang inside a single instruction (a blocked
// commit observer) is not interruptible — the
// caller's wall-clock deadline must write the goroutine off instead.
// Reset clears the flag, so a pooled machine never carries an interrupt
// into its next run.
func (m *Machine) Interrupt() { m.interrupted.Store(true) }

// resetFor scrubs one core for a fresh run under the given
// configuration, reusing its cache, undo-log, spec-set, RETCON and
// predictor allocations wherever the geometry allows. It exists as a
// method (rather than inline in Machine.Reset) so the resetcomplete
// analyzer statically proves every Core field is handled: a field added
// to Core and forgotten here is a compile-time lint finding, not a
// latent pooled-machine leak waiting for TestResetEquivalence to
// stumble over it.
func (c *Core) resetFor(prog *isa.Program, specCap int, retCfg core.Config, p Params) {
	c.Prog = prog
	c.instrs = prog.Instrs
	c.PC = 0
	c.Regs = [isa.NumRegs]int64{}
	c.Hier.Reset(p.L1Bytes, p.L2Bytes, p.Ways, mem.BlockSize, p.L1Hit, p.L2Hit)
	c.Tx.Reset(specCap)
	c.Ret.Configure(retCfg)
	c.Ret.Reset()
	c.Pred.ResetTo(p.PromoteAfter, p.ViolationPenalty)
	c.pendingTS = 0
	c.nackWaitSince = 0
	c.waitHolder = 0
	c.waitNacks = 0
	c.nackAt = 0
	c.nackBlock = 0
	c.parkedOn = -1
	c.runFrom, c.runTo = 0, 0
	c.halted = false
	c.barrierWait = false
	c.stallUntil = 0
	c.stallCat = CatBusy
	c.attributedUntil = 0
	c.Stats = CoreStats{}
	c.RetAgg = RetconAgg{}
}

// CommitObserver is called at the instant a transaction becomes permanent:
// every store (including RETCON's pre-commit repair) has been applied to
// the architectural image and the committing core's registers hold their
// final (repaired) values, but the transaction's undo log is still intact.
// Observers may inspect c.Tx (Undo, BeginPC, RegCkpt), c.Regs, c.PC and
// m.Mem, and must not mutate machine state. A non-nil error stops the
// simulation and is returned from Run — the hook point for external
// correctness oracles (e.g. internal/fuzz's replay oracle, which checks
// the paper's §4 claim that symbolic repair commits exactly the state a
// replayed execution would).
type CommitObserver func(m *Machine, c *Core) error

// OnCommit installs a commit observer. Call before Run; nil disables.
func (m *Machine) OnCommit(fn CommitObserver) { m.commitHook = fn }

// Run simulates until every core halts, returning the result. It fails if
// the cycle watchdog expires (a deadlocked or livelocked configuration,
// which indicates a bug — the contention policy guarantees progress).
// The cycle loop is the scheduler chosen in P.Sched: the event-driven
// time-skip loop by default, or the lockstep reference oracle; both
// produce identical Results.
func (m *Machine) Run() (*Result, error) {
	// Flush on every exit, including panic unwinds: a failed run leaves
	// its recorded events as a clean, record-aligned prefix of the
	// stream a successful run would have produced.
	defer m.rec.Flush()
	var err error
	if m.P.Sched == SchedLockstep {
		err = m.runLockstep()
	} else {
		start := m.Now
		m.lazyAttr = true
		err = m.runEvent()
		m.lazyAttr = false
		m.schedStats.EventCycles = m.Now - start
	}
	if err != nil {
		return nil, err
	}
	return m.result(), nil
}

// result collects the finished run's Result.
func (m *Machine) result() *Result {
	// Presize PerCore: the append-growth resizes were most of the ~6
	// steady-state allocations per run. (The slice must be fresh, not
	// machine-owned: Results outlive the machine's next Reset.)
	res := &Result{
		Cycles:  m.Now,
		Cores:   m.P.Cores,
		Mode:    m.P.Mode,
		Metrics: m.metrics,
		PerCore: make([]CoreStats, 0, len(m.Cores)),
	}
	for _, c := range m.Cores {
		res.PerCore = append(res.PerCore, c.Stats)
		mergeAgg(&res.Retcon, &c.RetAgg)
	}
	return res
}

func mergeAgg(dst, src *RetconAgg) {
	dst.Txs += src.Txs
	dst.SumLost += src.SumLost
	dst.SumTracked += src.SumTracked
	dst.SumRegs += src.SumRegs
	dst.SumStores += src.SumStores
	dst.SumConstraints += src.SumConstraints
	dst.SumCommitCycles += src.SumCommitCycles
	dst.SumTxCycles += src.SumTxCycles
	dst.MaxLost = max(dst.MaxLost, src.MaxLost)
	dst.MaxTracked = max(dst.MaxTracked, src.MaxTracked)
	dst.MaxRegs = max(dst.MaxRegs, src.MaxRegs)
	dst.MaxStores = max(dst.MaxStores, src.MaxStores)
	dst.MaxConstraints = max(dst.MaxConstraints, src.MaxConstraints)
	dst.MaxCommitCycles = max(dst.MaxCommitCycles, src.MaxCommitCycles)
}

func (m *Machine) watchdogErr() error {
	return &WatchdogError{Cycles: m.Now, PCs: m.pcs()}
}

func (m *Machine) interruptedErr() error {
	return &InterruptedError{Cycles: m.Now}
}

func (m *Machine) allHalted() bool { return m.haltedCores == len(m.Cores) }

func (m *Machine) pcs() []int {
	out := make([]int, len(m.Cores))
	for i, c := range m.Cores {
		out[i] = c.PC
	}
	return out
}

// step advances the machine by one lockstep cycle: every core, in ID
// order, is charged the cycle to its wait category or executes one
// instruction. The dispatch stays inline, so a halted or stalled core
// costs no call.
//
//retcon:hotpath lockstep per-cycle loop; see TestAllocsPerCycleRegression
func (m *Machine) step() {
	m.Now++
	now := m.Now
	for _, c := range m.Cores {
		switch {
		case c.halted:
		case c.barrierWait:
			c.addCycle(CatBarrier)
		case now <= c.stallUntil:
			c.addCycle(c.stallCat)
		default:
			m.exec(c)
		}
	}
	if m.syncDirty {
		m.releaseBarrier()
	}
}

// releaseBarrier re-evaluates the barrier-release condition. Callers gate
// it on syncDirty, so it runs only on cycles where an executed BARRIER or
// HALT could have changed the condition: it depends solely on the arrival
// count and the number of live cores, both of which change only through
// execution, so idle cycles cannot newly satisfy it (and the gate check
// itself stays inlined in the cycle loops).
func (m *Machine) releaseBarrier() {
	m.syncDirty = false
	if m.barrierArrived == 0 {
		return
	}
	if m.barrierArrived < len(m.Cores)-m.haltedCores {
		return
	}
	for _, c := range m.Cores {
		if c.barrierWait && m.lazyAttr {
			// The wait ends this cycle: charge the whole wait (through the
			// release cycle, as lockstep would) before clearing the flag,
			// and schedule the core for the next cycle.
			m.settle(c, m.Now)
			m.schedule(c.ID, m.Now+1)
		}
		c.barrierWait = false
	}
	m.barrierArrived = 0
}

// addCycle attributes the current cycle to a category, accumulating busy
// and other time inside transactions for reattribution on abort.
func (c *Core) addCycle(cat Category) { c.chargeCycles(cat, 1) }

// chargeCycles attributes n cycles to a category, accumulating busy and
// other time inside transactions for reattribution on abort — the bulk
// form shared by per-cycle attribution and lazy settling.
//
//retcon:hotpath cycle attribution; called once per core per visited cycle
func (c *Core) chargeCycles(cat Category, n int64) {
	c.Stats.Cycles[cat] += n
	if c.Tx.Active {
		switch cat {
		case CatBusy:
			c.Tx.AccumBusy += n
		case CatOther:
			c.Tx.AccumOther += n
		}
	}
}

// setStall stalls through cycle `until` with the given category.
func (c *Core) setStall(until int64, cat Category) {
	c.stallUntil = until
	c.stallCat = cat
}

// abort rolls core c's transaction back (zero-cycle eager rollback),
// reattributes its accumulated cycles to the conflict category, trains the
// predictor on the conflicting block (if any), and schedules the restart
// with a short backoff. It is safe to call on a core that is mid-stall
// (remote abort): the pending operation's effects were applied atomically
// at issue and are undone here. Every abort carries exactly one cause
// from the telemetry taxonomy, counted in the metrics registry and
// stamped on the recorded abort event.
func (m *Machine) abort(c *Core, blameBlock int64, cause telemetry.Cause) {
	if m.lazyAttr && c.ID != m.execID {
		// Remote abort under lazy attribution: bring the victim's accounting
		// to exactly the point the lockstep stepper would have reached this
		// cycle — a victim with a smaller ID was already stepped (its current
		// cycle went to the old category, and into the accumulators about to
		// be reattributed), a larger one was not (its current cycle will fall
		// under the conflict stall set below). A victim parked on a NACK
		// is charged the retries lockstep ran up to that same point; one
		// inside a run of local instructions is refunded the instructions
		// lockstep had not run by then.
		upTo := m.steppedThrough(c.ID)
		if c.parkedOn >= 0 {
			m.unpark(c, upTo)
		}
		m.settle(c, upTo)
		m.refundRun(c, upTo)
	}
	// wasted is the work this abort throws away — exactly the cycles the
	// next lines reattribute to the conflict category.
	wasted := c.Tx.AccumBusy + c.Tx.AccumOther
	c.Stats.Cycles[CatBusy] -= c.Tx.AccumBusy
	c.Stats.Cycles[CatOther] -= c.Tx.AccumOther
	c.Stats.Cycles[CatConflict] += wasted
	c.Tx.Rollback(m.Mem.WriteInt)
	c.Ret.Reset()
	c.Regs = c.Tx.RegCkpt
	c.PC = c.Tx.BeginPC
	c.Tx.Aborts++
	c.Stats.Aborts++
	if c.nackWaitSince != 0 {
		m.endNackWait(c, false) // the NACK wait in progress dies with the attempt
	}
	m.wakeWaiters(c.ID)
	m.metrics.AbortCause[cause]++
	m.metrics.AbortWaste.Observe(wasted)
	if blameBlock >= 0 {
		m.observeConflict(c, blameBlock)
	}
	if m.rec != nil {
		m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindAbort, Cause: cause,
			Tx: c.Tx.TS, Block: blameBlock, A: int64(c.Tx.Aborts), B: int64(c.PC), C: wasted})
	}
	backoff := m.P.AbortBackoffBase * int64(min(c.Tx.Aborts, 8))
	c.setStall(m.Now+backoff, CatConflict)
	if m.lazyAttr && c.ID != m.execID {
		// The backoff replaces whatever wake the victim had scheduled (it
		// may end earlier than the stall it cuts short): overwrite its
		// wake. The executing core reschedules itself after its turn.
		m.schedule(c.ID, c.stallUntil+1)
	}
}

// nextTS returns a fresh transaction timestamp.
func (m *Machine) nextTS() int64 {
	m.tsCounter++
	return m.tsCounter
}

// observeConflict trains the tracking predictor on a conflict that
// aborts core c's transaction. In eager mode the predictor's decisions
// are never consulted (no load ever initiates symbolic tracking), so
// training it there would be write-only work on the abort hot path —
// skip it. Lazy-vb and RETCON train as the paper describes. A NACK trains
// the predictor without an event of its own: the wait's NACK event
// carries the count (see coherentRequest and unpark).
func (m *Machine) observeConflict(c *Core, block int64) {
	if m.P.Mode != Eager {
		c.Pred.ObserveConflict(block)
		if m.rec != nil {
			m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindTrain, Block: block, A: 1})
		}
	}
}

// trainDown trains the tracking predictor away from the block holding
// word after a violation-class outcome (constraint violation, fold
// reject, structure overflow), so the retry does not re-track the same
// root into the same dead end. The shared exit for every
// ObserveViolation site, so training decisions are recorded uniformly.
func (m *Machine) trainDown(c *Core, word int64) {
	block := mem.BlockOf(word)
	c.Pred.ObserveViolation(block)
	if m.rec != nil {
		m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindTrain, Block: block, A: -1})
	}
}
