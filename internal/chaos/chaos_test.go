package chaos_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/lab"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// tinyCounter is a scaled-down shared-counter workload for the chaos
// grids: same transactional structure and atomicity oracle as the
// builtin counter, ~50× less compute. Honest runs must finish far
// inside the engine deadline even under -race on a loaded single-CPU
// machine timesharing 8 workers — otherwise deadline aborts would leak
// into fault-free grid points and the isolation assertions would flake.
type tinyCounter struct{ w *workloads.Counter }

func (tinyCounter) Name() string        { return "chaos-tiny-counter" }
func (tinyCounter) Description() string { return "scaled-down counter for chaos grids" }
func (tc tinyCounter) Build(threads int, seed int64) *workloads.Bundle {
	return tc.w.Build(threads, seed)
}

var registerTiny sync.Once

func tinyName() string {
	registerTiny.Do(func() {
		workloads.Register(func() workloads.Workload {
			return tinyCounter{w: &workloads.Counter{OpsPerThread: 8, IncsPerTx: 2, LocalWork: 25}}
		})
	})
	return "chaos-tiny-counter"
}

// counterGrid expands the acceptance grid: tiny counter × 3 modes ×
// cores {2,4} × seeds 1..8 = 48 runs.
func counterGrid(t *testing.T) []sweep.Run {
	t.Helper()
	spec := sweep.Spec{
		Name:      "chaos",
		Workloads: []string{tinyName()},
		Modes:     []string{"all"},
		Cores:     []int{2, 4},
	}
	runs, err := spec.ExpandWithSeeds(sim.DefaultParams(), []int64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 48 {
		t.Fatalf("grid has %d runs, want 48", len(runs))
	}
	return runs
}

// render flattens outcomes through BOTH structured sinks — the exact
// encoders the CLIs stream — so byte comparisons cover the full
// rendered output, failed records included.
func render(t *testing.T, outs []sweep.Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	js := report.NewJSONLSink(&buf)
	cs := report.NewCSVSink(&buf)
	for _, o := range outs {
		rec := o.Record()
		if err := js.Emit(rec); err != nil {
			t.Fatal(err)
		}
		if err := cs.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGridFaultIsolation is the acceptance proof: a 48-run grid with a
// mid-run scheduler panic, a hard hang past the wall-clock deadline and
// a transient-then-success failure injected into three distinct runs.
// The sweep must complete, exactly the panic and hang runs must carry
// correctly-classified errors, the transient run must succeed with the
// clean run's exact Result, every untouched run must match a fault-free
// engine pass — and the rendered JSONL/CSV must be byte-identical for 1
// and 8 workers.
func TestGridFaultIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second deadline-abandon grid")
	}
	runs := counterGrid(t)
	targets := chaos.Pick(runs, 42, 3)
	gate := make(chan struct{})
	defer close(gate) // release the forfeited hung goroutines at exit
	plan := chaos.NewPlan()
	plan.Add(targets[0], chaos.Fault{Kind: chaos.SchedPanic, PanicAfter: 200})
	plan.Add(targets[1], chaos.Fault{Kind: chaos.Hang, Gate: gate})
	plan.Add(targets[2], chaos.Fault{Kind: chaos.Transient, FailAttempts: 1})

	clean := (&sweep.Engine{Workers: 8}).Execute(runs)

	var docs [][]byte
	var outs []sweep.Outcome
	for _, w := range []int{1, 8} {
		// The deadline must be generous enough that no honest run trips it
		// even under -race (which slows the simulator ~20×) on a loaded CI
		// machine; only the gated hang may ever exceed it.
		eng := &sweep.Engine{
			Workers:      w,
			Tasks:        plan.Runner(),
			Deadline:     2 * time.Second,
			Retries:      1,
			RetryBackoff: time.Millisecond,
		}
		outs = eng.Execute(runs)
		docs = append(docs, render(t, outs))
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("chaos grid output differs between 1 and 8 workers")
	}

	failed := 0
	for i, o := range outs {
		switch chaos.TargetOf(o.Run) {
		case targets[0]:
			failed++
			if k := sweep.Classify(o.Err); k != sweep.FailPanic {
				t.Errorf("sched-panic run classified %v (err %v), want panic", k, o.Err)
			} else if !strings.Contains(o.Err.Error(), "injected scheduler panic at cycle 200") {
				t.Errorf("sched-panic message = %q", o.Err.Error())
			}
		case targets[1]:
			failed++
			if k := sweep.Classify(o.Err); k != sweep.FailDeadline {
				t.Errorf("hung run classified %v (err %v), want deadline", k, o.Err)
			} else if !strings.Contains(o.Err.Error(), "exceeded the 2s wall-clock deadline") {
				t.Errorf("hang message = %q", o.Err.Error())
			}
		default:
			if o.Err != nil {
				t.Errorf("fault-free run %v failed: %v", chaos.TargetOf(o.Run), o.Err)
			} else if !reflect.DeepEqual(o.Res, clean[i].Res) {
				t.Errorf("fault-free run %v diverged from the clean pass", chaos.TargetOf(o.Run))
			}
		}
	}
	if failed != 2 {
		t.Errorf("%d failed outcomes, want exactly 2 (panic + hang)", failed)
	}
	// The transient run retried into the clean run's exact result (it
	// matched in the default arm above); prove it was actually targeted.
	for i, o := range outs {
		if chaos.TargetOf(o.Run) == targets[2] {
			if o.Err != nil || !reflect.DeepEqual(o.Res, clean[i].Res) {
				t.Errorf("transient run did not recover to the clean result: err %v", o.Err)
			}
		}
	}
}

// TestKillAndResume is the crash-safety proof: pass A runs the chaos
// grid uninterrupted against a fresh journal; pass B is checkpointed
// after its first emission (simulating SIGINT) and its journal gets a
// torn trailing line appended (simulating a crash mid-write); pass C
// resumes from that journal and must reproduce pass A's rendered
// JSONL/CSV byte for byte — including the replayed failure records.
func TestKillAndResume(t *testing.T) {
	runs := counterGrid(t)
	targets := chaos.Pick(runs, 7, 2)
	plan := chaos.NewPlan()
	plan.Add(targets[0], chaos.Fault{Kind: chaos.Panic})
	plan.Add(targets[1], chaos.Fault{Kind: chaos.Transient, FailAttempts: 1})
	engine := func(j *sweep.Journal, stop chan struct{}) *sweep.Engine {
		return &sweep.Engine{
			Workers: 4, Tasks: plan.Runner(),
			Retries: 1, RetryBackoff: time.Millisecond,
			Journal: j, Stop: stop,
		}
	}
	dir := t.TempDir()

	// Pass A: uninterrupted.
	pathA := filepath.Join(dir, "a.jsonl")
	jA, err := sweep.OpenJournal(pathA, false)
	if err != nil {
		t.Fatal(err)
	}
	docA := render(t, engine(jA, nil).Execute(runs))
	if err := jA.Close(); err != nil {
		t.Fatal(err)
	}
	if jA.Len() != 48 {
		t.Fatalf("pass A journaled %d runs, want 48", jA.Len())
	}

	// Pass B: checkpoint as soon as the first run starts, like a SIGINT
	// handler closing the stop channel mid-sweep. Closing it from inside
	// the runner, rather than at the first emission, interrupts the pass
	// however fast the runs are: when the first run starts, most of the
	// grid is still undispatched.
	pathB := filepath.Join(dir, "b.jsonl")
	jB, err := sweep.OpenJournal(pathB, false)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var once sync.Once
	engineB := engine(jB, stop)
	runner := plan.Runner()
	engineB.Tasks = func(task sweep.Task) (*sim.Result, error) {
		once.Do(func() { close(stop) })
		return runner(task)
	}
	var outsB []sweep.Outcome
	engineB.ExecuteStream(runs, func(o sweep.Outcome) { outsB = append(outsB, o) })
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}
	interrupted := 0
	for _, o := range outsB {
		if sweep.Classify(o.Err) == sweep.FailInterrupted {
			interrupted++
		}
	}
	if interrupted == 0 {
		t.Fatal("pass B was not interrupted; the checkpoint test proved nothing")
	}
	// Interrupted runs are never journaled: every journal line is a run
	// that actually completed.
	if jB.Len()+interrupted != 48 {
		t.Fatalf("journal %d + interrupted %d != 48", jB.Len(), interrupted)
	}

	// Crash artifact: a torn trailing line, as if the process died inside
	// a Record write.
	f, err := os.OpenFile(pathB, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"workload":"counter","seed":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Pass C: resume. Journaled outcomes replay, the rest execute.
	jC, err := sweep.OpenJournal(pathB, true)
	if err != nil {
		t.Fatal(err)
	}
	docC := render(t, engine(jC, nil).Execute(runs))
	if err := jC.Close(); err != nil {
		t.Fatal(err)
	}
	if jC.Hits() == 0 {
		t.Error("resume replayed nothing from the journal")
	}
	if !bytes.Equal(docA, docC) {
		t.Error("resumed output is not byte-identical to the uninterrupted pass")
	}
}

// TestPanicWorkloadFactory: a workload whose Build panics poisons
// exactly its own grid point. The panic fires before any machine is
// acquired, the engine converts it into one FailPanic outcome, and the
// rest of the grid renders byte-identically for 1 and 8 workers.
func TestPanicWorkloadFactory(t *testing.T) {
	name := chaos.RegisterPanicWorkload("chaos-boom")
	spec := sweep.Spec{
		Name:      "pf",
		Workloads: []string{"counter"},
		Modes:     []string{"all"},
		Cores:     []int{2},
	}
	runs, err := spec.ExpandWithSeeds(sim.DefaultParams(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := runs[0]
	bad.Workload = name
	// Splice the poisoned run into the middle of the grid.
	mid := len(runs) / 2
	runs = append(runs[:mid], append([]sweep.Run{bad}, runs[mid:]...)...)

	var docs [][]byte
	var outs []sweep.Outcome
	for _, w := range []int{1, 8} {
		outs = (&sweep.Engine{Workers: w}).Execute(runs)
		docs = append(docs, render(t, outs))
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("output differs between 1 and 8 workers")
	}
	failed := 0
	for _, o := range outs {
		if o.Err == nil {
			continue
		}
		failed++
		if o.Run.Workload != name {
			t.Errorf("innocent run %s seed %d failed: %v", o.Run.Workload, o.Run.Seed, o.Err)
		}
		if k := sweep.Classify(o.Err); k != sweep.FailPanic {
			t.Errorf("classified %v, want panic", k)
		}
		if !strings.Contains(o.Err.Error(), "workload factory") {
			t.Errorf("panic message lost: %q", o.Err.Error())
		}
	}
	if failed != 1 {
		t.Errorf("%d failed outcomes, want exactly 1", failed)
	}
}

// TestSchedPanicMidRun: a scheduler that panics mid-simulation fails
// exactly its own run; the machine it corrupted is quarantined, the
// worker pool survives, and the rest of the grid is byte-identical
// across pool sizes.
func TestSchedPanicMidRun(t *testing.T) {
	spec := sweep.Spec{
		Name:      "sp",
		Workloads: []string{"counter"},
		Modes:     []string{"all"},
		Cores:     []int{2},
	}
	runs, err := spec.ExpandWithSeeds(sim.DefaultParams(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	target := chaos.TargetOf(runs[len(runs)/2])
	plan := chaos.NewPlan()
	plan.Add(target, chaos.Fault{Kind: chaos.SchedPanic, PanicAfter: 300})

	clean := (&sweep.Engine{Workers: 4}).Execute(runs)
	var docs [][]byte
	var outs []sweep.Outcome
	for _, w := range []int{1, 8} {
		outs = (&sweep.Engine{Workers: w, Tasks: plan.Runner()}).Execute(runs)
		docs = append(docs, render(t, outs))
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("output differs between 1 and 8 workers")
	}
	failed := 0
	for i, o := range outs {
		if chaos.TargetOf(o.Run) == target {
			failed++
			if k := sweep.Classify(o.Err); k != sweep.FailPanic {
				t.Errorf("classified %v (err %v), want panic", k, o.Err)
			}
			continue
		}
		if o.Err != nil || !reflect.DeepEqual(o.Res, clean[i].Res) {
			t.Errorf("innocent run %v corrupted: err %v", chaos.TargetOf(o.Run), o.Err)
		}
	}
	if failed != 1 {
		t.Errorf("%d failed outcomes, want exactly 1", failed)
	}
}

// TestCorruptResultCaughtByOracle: silent Result corruption must not
// survive the lab — the lockstep differential oracle re-executes every
// grid run and flags the mismatch as an infra anomaly, forcing the
// verdict to INCONCLUSIVE.
func TestCorruptResultCaughtByOracle(t *testing.T) {
	h, err := lab.LoadFile("../../examples/hypotheses/zipf-skew.json")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := lab.Run(h, lab.Options{Engine: sweep.Engine{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Infra) != 0 {
		t.Fatalf("clean run has infra anomalies: %v", clean.Infra)
	}

	// Corrupt the first treatment grid run's Result. The fault must be
	// scheduler-sided — a Target is scheduler-blind, so an unconditional
	// fault would corrupt the lockstep oracle twin identically and the
	// mismatch would cancel out.
	texp, err := h.Treatment.ExpandWithSeeds(sim.DefaultParams(), clean.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if texp[0].Params.Sched == sim.SchedLockstep {
		t.Skip("grid already lockstep; the oracle twin deduplicates away")
	}
	plan := chaos.NewPlan()
	plan.Add(chaos.TargetOf(texp[0]), chaos.Fault{Kind: chaos.CorruptResult})

	rep, err := lab.Run(h, lab.Options{Engine: sweep.Engine{Workers: 4, Tasks: corruptingRunner(plan)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != lab.Inconclusive {
		t.Fatalf("verdict = %v, want INCONCLUSIVE", rep.Verdict)
	}
	found := false
	for _, a := range rep.Infra {
		if strings.Contains(a, "scheduler divergence") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption not flagged as divergence: %v", rep.Infra)
	}
}

// corruptingRunner applies a chaos plan's faults only to event-scheduled
// runs, so the lockstep oracle twin keeps the honest Result.
func corruptingRunner(p *chaos.Plan) sweep.TaskFunc {
	faulty := p.Runner()
	honest := sweep.SimRunner(nil)
	return func(t sweep.Task) (*sim.Result, error) {
		if _, ok := p.Fault(t.Run); ok && t.Run.Params.Sched != sim.SchedLockstep {
			return faulty(t)
		}
		return honest(t)
	}
}

// TestLabJournalResume: a lab run against a journal, then a resume from
// a half-truncated journal with a torn tail, must render the
// byte-identical FINDINGS.md.
func TestLabJournalResume(t *testing.T) {
	h, err := lab.LoadFile("../../examples/hypotheses/zipf-skew.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "lab.jsonl")

	j1, err := sweep.OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := lab.Run(h, lab.Options{Engine: sweep.Engine{Workers: 4, Journal: j1}})
	if err != nil {
		t.Fatal(err)
	}
	doc1 := lab.Render(rep1)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated crash: keep the first half of the journal, tear the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	half := bytes.Join(lines[:len(lines)/2], nil)
	half = append(half, []byte(`{"workload":"spec:`)...)
	if err := os.WriteFile(path, half, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := sweep.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := lab.Run(h, lab.Options{Engine: sweep.Engine{Workers: 4, Journal: j2}})
	if err != nil {
		t.Fatal(err)
	}
	doc2 := lab.Render(rep2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if j2.Hits() == 0 {
		t.Error("resume replayed nothing")
	}
	if !bytes.Equal(doc1, doc2) {
		t.Error("resumed findings differ from the uninterrupted run")
	}
}

// TestPanickedRunLeavesCleanPartialTrace: a run killed mid-simulation
// by an injected scheduler panic must leave a well-formed partial event
// trace — the machine's deferred recorder flush fires on the panic
// unwind, so the sink holds a record-aligned prefix of the clean run's
// trace, never a torn record.
func TestPanickedRunLeavesCleanPartialTrace(t *testing.T) {
	const panicAt = 300
	run := sweep.Run{Workload: "counter", Seed: 1, Params: sim.DefaultParams()}
	run.Params.Cores = 2
	run.Params.Mode = sim.RetCon

	// Clean reference: the same run to completion under lockstep (the
	// panicking scheduler drives the lockstep Step loop, so event order
	// matches it exactly).
	var full bytes.Buffer
	cleanRun := run
	cleanRun.Params.Sched = sim.SchedLockstep
	outs := (&sweep.Engine{Tasks: sweep.SimRunner(func(r sweep.Run, m *sim.Machine) {
		m.Record(telemetry.NewRecorder(telemetry.NewJSONLSink(&full), 64))
	})}).Execute([]sweep.Run{cleanRun})
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}

	// Faulted run: recorder attached, scheduler panics at a fixed cycle.
	// The tiny ring (64 events) forces several mid-run flushes, so the
	// partial trace crosses flush boundaries before the panic tears it.
	var partial bytes.Buffer
	outs = (&sweep.Engine{Tasks: sweep.SimRunner(func(r sweep.Run, m *sim.Machine) {
		m.Record(telemetry.NewRecorder(telemetry.NewJSONLSink(&partial), 64))
		m.SetScheduler(&chaos.PanicScheduler{After: panicAt})
	})}).Execute([]sweep.Run{run})
	if k := sweep.Classify(outs[0].Err); k != sweep.FailPanic {
		t.Fatalf("classified %v (err %v), want panic", k, outs[0].Err)
	}

	evs, err := telemetry.ReadEvents(bytes.NewReader(partial.Bytes()))
	if err != nil {
		t.Fatalf("partial trace is torn: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("partial trace is empty; expected events before the panic cycle")
	}
	for i := range evs {
		if evs[i].Cycle > panicAt {
			t.Errorf("event %d at cycle %d, after the panic cycle %d", i, evs[i].Cycle, panicAt)
		}
	}
	if !bytes.HasPrefix(full.Bytes(), partial.Bytes()) {
		t.Error("partial trace is not a byte prefix of the clean run's trace")
	}
}
