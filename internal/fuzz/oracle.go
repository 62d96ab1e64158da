package fuzz

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Oracle names, used to classify divergences (and to keep the shrinker
// anchored to the bug it started from).
const (
	OracleSched  = "sched"  // lockstep vs event scheduler mismatch
	OracleReplay = "replay" // committed state != functionally replayed state
	OracleMemory = "memory" // final shared state != static expectation
	OracleStats  = "stats"  // statistics invariants violated
	OracleRun    = "run"    // simulation error (watchdog / livelock / setup)
)

// Divergence is one oracle failure for one generated program.
type Divergence struct {
	Seed   int64  `json:"seed"`
	Oracle string `json:"oracle"`
	Mode   string `json:"mode"`
	Detail string `json:"detail"`
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("fuzz seed %d: oracle %s (mode %s): %s", d.Seed, d.Oracle, d.Mode, d.Detail)
}

// Options configures a harness check.
type Options struct {
	// MaxCycles is the per-run watchdog; 0 means a bound sized for the
	// generator's program budgets (hitting it indicates livelock).
	MaxCycles int64
	// SkipReplay disables the per-commit replay oracle.
	SkipReplay bool
}

func (o Options) maxCycles() int64 {
	if o.MaxCycles > 0 {
		return o.MaxCycles
	}
	return 5_000_000
}

// Check runs the program under every oracle and returns the first
// divergence, or nil when all oracles hold. It compiles the program once;
// per mode (eager, lazy-vb, RETCON) it simulates that compile under both
// schedulers with the replay oracle installed, each run on its own clone
// of the initial image, and requires equal Results, equal event traces
// and equal final images. It then checks statistics invariants and the
// statically-expected final shared state.
func Check(p *Prog, o Options) *Divergence {
	ex, err := p.expectations()
	if err != nil {
		return &Divergence{Seed: p.Seed, Oracle: OracleRun, Detail: err.Error()}
	}
	img, progs, lay, err := Compile(p)
	if err != nil {
		return &Divergence{Seed: p.Seed, Oracle: OracleRun, Detail: err.Error()}
	}
	c := &checker{p: p, ex: ex, o: o, img: img, progs: progs, lay: lay,
		lockTrace: eventLogs.Get().(*eventLog), evTrace: eventLogs.Get().(*eventLog)}
	var d *Divergence
	for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
		if d = c.checkMode(mode); d != nil {
			break
		}
	}
	// A divergence keeps no reference to the logs. A panic skips this,
	// so a log it may have left mid-write is never reused.
	eventLogs.Put(c.lockTrace)
	eventLogs.Put(c.evTrace)
	return d
}

// checker holds one program's single compile and the per-scheduler trace
// buffers that its six runs share, taken from eventLogs.
type checker struct {
	p     *Prog
	ex    *expect
	o     Options
	img   *mem.Image     // initial image; every run simulates on a Clone
	progs []*isa.Program // read-only during simulation, shared by all runs
	lay   *layout

	// One event log per scheduler, reused across the three modes.
	lockTrace, evTrace *eventLog
}

type runOut struct {
	res   *sim.Result
	trace []telemetry.Event
	img   *mem.Image
	err   error
}

func (c *checker) checkMode(mode sim.Mode) *Divergence {
	div := func(oracle, format string, args ...interface{}) *Divergence {
		return &Divergence{Seed: c.p.Seed, Oracle: oracle, Mode: mode.String(), Detail: fmt.Sprintf(format, args...)}
	}

	lock := c.runSched(mode, sim.SchedLockstep, c.lockTrace)
	ev := c.runSched(mode, sim.SchedEvent, c.evTrace)
	for _, r := range []*runOut{lock, ev} {
		if _, isReplay := r.err.(*replayErr); isReplay {
			return div(OracleReplay, "%v", r.err.(*replayErr).inner)
		}
	}
	if (lock.err == nil) != (ev.err == nil) ||
		(lock.err != nil && lock.err.Error() != ev.err.Error()) {
		return div(OracleSched, "errors differ: lockstep=%v event=%v", lock.err, ev.err)
	}
	if lock.err != nil {
		// Both schedulers failed identically: a deterministic simulation
		// error (watchdog = livelock, or setup failure) — still a bug.
		return div(OracleRun, "%v", lock.err)
	}
	if !reflect.DeepEqual(lock.res, ev.res) {
		return div(OracleSched, "results diverge:\nlockstep: %+v\nevent:    %+v", lock.res, ev.res)
	}
	if !slices.Equal(lock.trace, ev.trace) {
		return div(OracleSched, "traces diverge (lockstep %d events, event %d events):%s",
			len(lock.trace), len(ev.trace), firstTraceDiff(lock.trace, ev.trace))
	}
	if !lock.img.Equal(ev.img) {
		w := lock.img.DiffWord(ev.img)
		return div(OracleSched, "final memory diverges at word %#x: lockstep %d, event %d",
			w, lock.img.Read64(w), ev.img.Read64(w))
	}

	if d := checkStats(c.p, c.ex, mode, ev.res); d != nil {
		d.Mode = mode.String()
		return d
	}
	if d := checkMemory(c.p, c.ex, c.lay, ev.img); d != nil {
		d.Mode = mode.String()
		return d
	}
	return nil
}

// replayErr marks a commit-observer failure so it is classified under the
// replay oracle rather than as a generic run error.
type replayErr struct{ inner error }

func (e *replayErr) Error() string { return e.inner.Error() }

// machines recycles simulators across the harness's runs (6 per checked
// program, all from its one compile: 3 modes x 2 schedulers, times
// however many seeds a campaign sweeps). Reset guarantees reuse cannot
// change any oracle's verdict.
var machines sim.MachinePool

// runParams returns the machine parameters that run program p in mode
// under scheduler kind.
func runParams(p *Prog, mode sim.Mode, kind sim.SchedKind, o Options) sim.Params {
	params := sim.DefaultParams()
	params.Cores = p.Cores
	params.Mode = mode
	params.Sched = kind
	params.MaxCycles = o.maxCycles()
	if p.IVB > 0 {
		params.Retcon.IVBEntries = p.IVB
	}
	if p.Constraint > 0 {
		params.Retcon.ConstraintEntries = p.Constraint
	}
	if p.SSB > 0 {
		params.Retcon.SSBEntries = p.SSB
	}
	return params
}

func (c *checker) runSched(mode sim.Mode, kind sim.SchedKind, trace *eventLog) *runOut {
	p := c.p
	img := c.img.Clone()
	m, err := machines.Get(runParams(p, mode, kind, c.o), img, c.progs)
	if err != nil {
		return &runOut{err: err}
	}
	defer machines.Put(m)
	// The stats oracle asserts no spec-overflow aborts, which is only a
	// fair invariant if a transaction's worst-case footprint (every
	// shared block plus the core's private block) fits the machine's
	// speculative capacity. Generated layouts sit far below Table 1's
	// 1280 blocks; this guards the invariant if either side ever changes.
	if fp := wordBlocks(len(p.Words)) + wordBlocks(p.TableSlots) + 1; fp > int64(m.Cores[0].Tx.Spec.Cap()) {
		return &runOut{err: fmt.Errorf("fuzz: footprint %d blocks exceeds speculative capacity %d", fp, m.Cores[0].Tx.Spec.Cap())}
	}
	trace.reset()
	m.Record(trace.rec)
	if !c.o.SkipReplay {
		inner := ReplayOracle()
		m.OnCommit(func(mm *sim.Machine, cc *sim.Core) error {
			if err := inner(mm, cc); err != nil {
				return &replayErr{inner: err}
			}
			return nil
		})
	}
	res, err := m.Run()
	return &runOut{res: res, trace: trace.evs, img: img, err: err}
}

// traceCapEvents bounds the recorded event trace per run: 8 MiB of
// 72-byte events. Generated programs emit a few thousand events; the cap
// only matters for pathological runs (e.g. a livelock spinning until the
// watchdog), where an unbounded buffer would multiply across the worker
// pool into real memory pressure. Both schedulers emit identical event
// streams in identical batches, so comparing the kept prefixes preserves
// the oracle: a divergence inside the cap is caught, and the cap is far
// above any healthy run's output.
const traceCapEvents = (8 << 20) / 72

// recorderRing is the ring of an eventLog's recorder. Generated programs
// emit a few thousand events, so a small ring only means more, cheaper
// flushes into the log.
const recorderRing = 256

// eventLog is a telemetry.Sink that keeps whole batches until the first
// one that would take it past limit events, and drops that batch and
// every later one.
type eventLog struct {
	evs   []telemetry.Event
	limit int
	full  bool
	// rec records into this log. Machine.Run flushes it on exit, so its
	// ring is empty again before the next run.
	rec *telemetry.Recorder
}

func newEventLog() *eventLog {
	l := &eventLog{limit: traceCapEvents}
	l.rec = telemetry.NewRecorder(l, recorderRing)
	return l
}

// eventLogs recycles event logs, with their recorders and grown buffers,
// across Check calls, as machines recycles simulators: runSched resets a
// log before every run, so reuse cannot change a verdict.
var eventLogs = sync.Pool{New: func() any { return newEventLog() }}

// reset empties the log for the next run, keeping its buffer.
func (l *eventLog) reset() {
	l.evs = l.evs[:0]
	l.full = false
}

func (l *eventLog) WriteEvents(evs []telemetry.Event) error {
	if l.full || len(l.evs)+len(evs) > l.limit {
		l.full = true
		return nil
	}
	l.evs = append(l.evs, evs...)
	return nil
}

// checkStats enforces the statistics invariants on one run's result.
func checkStats(p *Prog, ex *expect, mode sim.Mode, res *sim.Result) *Divergence {
	div := func(format string, args ...interface{}) *Divergence {
		return &Divergence{Seed: p.Seed, Oracle: OracleStats, Detail: fmt.Sprintf(format, args...)}
	}
	if res.Cycles <= 0 {
		return div("cycles = %d", res.Cycles)
	}
	for i := range res.PerCore {
		c := &res.PerCore[i]
		var sum int64
		for cat, v := range c.Cycles {
			if v < 0 {
				return div("core %d: negative %v cycles (%d)", i, sim.Category(cat), v)
			}
			sum += v
		}
		if sum > res.Cycles {
			return div("core %d: attributed %d cycles, machine ran %d", i, sum, res.Cycles)
		}
		if c.Commits != ex.commits[i] {
			return div("core %d: %d commits, statically expected %d", i, c.Commits, ex.commits[i])
		}
		if c.Instrs <= 0 {
			return div("core %d: %d instructions", i, c.Instrs)
		}
	}
	t := res.Totals()
	causes := &res.Metrics.AbortCause
	if causes[telemetry.CauseNone] != 0 {
		return div("%d aborts recorded without a cause", causes[telemetry.CauseNone])
	}
	if n := causes[telemetry.CauseSpecOverflow]; n != 0 {
		return div("%d spec-set overflows on a non-overflowing configuration", n)
	}
	var byCause int64
	for _, n := range causes {
		byCause += n
	}
	if byCause != t.Aborts {
		return div("%d aborts by cause, %d aborts per core", byCause, t.Aborts)
	}
	agg := res.Retcon
	if mode == sim.Eager {
		if agg.Txs != 0 {
			return div("eager mode recorded %d RETCON transactions", agg.Txs)
		}
	} else if agg.Txs != t.Commits {
		return div("RETCON aggregate has %d txs, %d commits", agg.Txs, t.Commits)
	}
	for _, c := range []struct {
		name     string
		max, sum int64
	}{
		{"lost", agg.MaxLost, agg.SumLost},
		{"tracked", agg.MaxTracked, agg.SumTracked},
		{"regs", agg.MaxRegs, agg.SumRegs},
		{"stores", agg.MaxStores, agg.SumStores},
		{"constraints", agg.MaxConstraints, agg.SumConstraints},
		{"commit cycles", agg.MaxCommitCycles, agg.SumCommitCycles},
	} {
		if c.max < 0 || c.sum < 0 || c.max > c.sum {
			return div("RETCON aggregate %s: max %d vs sum %d", c.name, c.max, c.sum)
		}
	}
	return nil
}

// checkMemory compares the final shared state against the static model:
// counter sums, lane last-writes and hash-table membership.
func checkMemory(p *Prog, ex *expect, lay *layout, img *mem.Image) *Divergence {
	div := func(format string, args ...interface{}) *Divergence {
		return &Divergence{Seed: p.Seed, Oracle: OracleMemory, Detail: fmt.Sprintf(format, args...)}
	}
	for i, want := range ex.counters {
		if got := img.Read64(lay.wordAddr(i)); got != want {
			return div("counter word %d (addr %#x) = %d, want %d", i, lay.wordAddr(i), got, want)
		}
	}
	for i, want := range ex.lanes {
		if got := img.Read64(lay.wordAddr(i)); got != want {
			return div("lane word %d (addr %#x) = %#x, want %#x", i, lay.wordAddr(i), got, want)
		}
	}
	if p.TableSlots > 0 {
		var got []int64
		for s := 0; s < p.TableSlots; s++ {
			if v := img.Read64(lay.tableBase + int64(s)*mem.WordSize); v != 0 {
				got = append(got, v)
			}
		}
		want := append([]int64(nil), ex.keys...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			return div("table holds %v, want keys %v", got, want)
		}
	}
	return nil
}

// firstTraceDiff renders the first differing event of two traces for a
// readable divergence report.
func firstTraceDiff(a, b []telemetry.Event) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("\nevent %d:\nlockstep: %s\nevent:    %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("\none trace is a prefix of the other (%d vs %d events)", len(a), len(b))
}
