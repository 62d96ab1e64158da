package fuzz

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"

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
// divergence, or nil when all oracles hold. Per mode (eager, lazy-vb,
// RETCON) it simulates under both schedulers with the replay oracle
// installed, compares the two runs byte-for-byte, then checks statistics
// invariants and the statically-expected final shared state.
func Check(p *Prog, o Options) *Divergence {
	ex, err := p.expectations()
	if err != nil {
		return &Divergence{Seed: p.Seed, Oracle: OracleRun, Detail: err.Error()}
	}
	for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
		if d := checkMode(p, ex, mode, o); d != nil {
			return d
		}
	}
	return nil
}

type runOut struct {
	res   *sim.Result
	trace []byte
	img   *mem.Image
	err   error
}

func checkMode(p *Prog, ex *expect, mode sim.Mode, o Options) *Divergence {
	div := func(oracle, format string, args ...interface{}) *Divergence {
		return &Divergence{Seed: p.Seed, Oracle: oracle, Mode: mode.String(), Detail: fmt.Sprintf(format, args...)}
	}

	lock := runSched(p, mode, sim.SchedLockstep, o)
	ev := runSched(p, mode, sim.SchedEvent, o)
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
	if !bytes.Equal(lock.trace, ev.trace) {
		return div(OracleSched, "traces diverge (lockstep %d bytes, event %d bytes):%s",
			len(lock.trace), len(ev.trace), firstTraceDiff(lock.trace, ev.trace))
	}
	if !lock.img.Equal(ev.img) {
		w := lock.img.DiffWord(ev.img)
		return div(OracleSched, "final memory diverges at word %#x: lockstep %d, event %d",
			w, lock.img.Read64(w), ev.img.Read64(w))
	}

	if d := checkStats(p, ex, mode, ev.res); d != nil {
		d.Mode = mode.String()
		return d
	}
	if d := checkMemory(p, ex, ev.img); d != nil {
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
// program: 3 modes x 2 schedulers, times however many seeds a campaign
// sweeps). Reset guarantees reuse cannot change any oracle's verdict.
var machines sim.MachinePool

func runSched(p *Prog, mode sim.Mode, kind sim.SchedKind, o Options) *runOut {
	img, progs, _, err := Compile(p)
	if err != nil {
		return &runOut{err: err}
	}
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
	m, err := machines.Get(params, img, progs)
	if err != nil {
		return &runOut{err: err}
	}
	defer machines.Put(m)
	// The stats oracle asserts no spec-overflow aborts, which is only a
	// fair invariant if a transaction's worst-case footprint (every
	// shared block plus the core's private block) fits the machine's
	// speculative capacity. Generated layouts sit far below Table 1's
	// 1280 blocks; this guards the invariant if either side ever changes.
	blocks := func(words int) int { return (words + mem.WordsPerBlock - 1) / mem.WordsPerBlock }
	if fp := blocks(len(p.Words)) + blocks(p.TableSlots) + 1; fp > m.Cores[0].Tx.Spec.Cap() {
		return &runOut{err: fmt.Errorf("fuzz: footprint %d blocks exceeds speculative capacity %d", fp, m.Cores[0].Tx.Spec.Cap())}
	}
	trace := &cappedBuf{limit: traceCapBytes}
	m.Record(telemetry.NewRecorder(telemetry.NewBinarySink(trace), 0))
	if !o.SkipReplay {
		inner := ReplayOracle()
		m.OnCommit(func(mm *sim.Machine, cc *sim.Core) error {
			if err := inner(mm, cc); err != nil {
				return &replayErr{inner: err}
			}
			return nil
		})
	}
	res, err := m.Run()
	return &runOut{res: res, trace: trace.buf.Bytes(), img: img, err: err}
}

// traceCapBytes bounds the in-memory event trace per run. Generated
// programs emit a few KB; the cap only matters for pathological runs
// (e.g. a livelock spinning until the watchdog), where an unbounded
// buffer would multiply across the worker pool into real memory
// pressure. Both schedulers emit identical event streams, so comparing
// equal-length prefixes preserves the oracle: a divergence inside the
// cap is caught, and the cap is far above any healthy run's output.
const traceCapBytes = 8 << 20

// cappedBuf is an io.Writer that keeps whole writes until the first
// one that would take it past limit bytes, and discards that write and
// every later one. The binary sink writes whole records per call, so
// the kept prefix always decodes.
type cappedBuf struct {
	buf   bytes.Buffer
	limit int
}

func (c *cappedBuf) Write(p []byte) (int, error) {
	if c.buf.Len()+len(p) <= c.limit {
		c.buf.Write(p)
	} else {
		c.limit = 0 // nothing fits after the first dropped write
	}
	return len(p), nil
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
func checkMemory(p *Prog, ex *expect, img *mem.Image) *Divergence {
	div := func(format string, args ...interface{}) *Divergence {
		return &Divergence{Seed: p.Seed, Oracle: OracleMemory, Detail: fmt.Sprintf(format, args...)}
	}
	_, _, lay, err := Compile(p) // layout only; deterministic and cheap
	if err != nil {
		return div("relayout: %v", err)
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

// firstTraceDiff decodes both binary traces and renders the first
// differing event for a readable divergence report.
func firstTraceDiff(a, b []byte) string {
	ea, err := telemetry.ReadEvents(bytes.NewReader(a))
	if err != nil {
		return fmt.Sprintf("\nlockstep trace: %v", err)
	}
	eb, err := telemetry.ReadEvents(bytes.NewReader(b))
	if err != nil {
		return fmt.Sprintf("\nevent trace: %v", err)
	}
	for i := 0; i < len(ea) && i < len(eb); i++ {
		if ea[i] != eb[i] {
			return fmt.Sprintf("\nevent %d:\nlockstep: %s\nevent:    %s", i, ea[i], eb[i])
		}
	}
	return fmt.Sprintf("\none trace is a prefix of the other (%d vs %d events)", len(ea), len(eb))
}
