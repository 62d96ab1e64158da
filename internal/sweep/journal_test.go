package sweep

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestJournalRoundtrip: success and failure outcomes written to a file
// journal replay from a resume load with exactly their original
// rendering — Results reflect.DeepEqual, failures as *RunError with the
// recorded kind and message.
func TestJournalRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	runs := grid(3)
	res := &sim.Result{
		Cycles: 42, Cores: 2, Mode: sim.RetCon,
		PerCore: []sim.CoreStats{{Commits: 7, Instrs: 100}, {Aborts: 2}},
	}
	if err := j.Record(runs[0], res, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(runs[1], nil, &RunError{Kind: FailPanic, Msg: "sweep: counter: panic: boom"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(runs[2], nil, errors.New("plain failure")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("loaded %d entries, want 3", r.Len())
	}
	got, gerr, ok := r.Lookup(runs[0])
	if !ok || gerr != nil || !reflect.DeepEqual(got, res) {
		t.Fatalf("success replay: ok=%v err=%v res=%+v", ok, gerr, got)
	}
	_, gerr, ok = r.Lookup(runs[1])
	var re *RunError
	if !ok || !errors.As(gerr, &re) || re.Kind != FailPanic || re.Msg != "sweep: counter: panic: boom" {
		t.Fatalf("panic replay: ok=%v err=%v", ok, gerr)
	}
	_, gerr, ok = r.Lookup(runs[2])
	if !ok || Classify(gerr) != FailError || gerr.Error() != "plain failure" {
		t.Fatalf("plain-error replay: ok=%v err=%v", ok, gerr)
	}
	if r.Hits() != 3 {
		t.Errorf("hits = %d, want 3", r.Hits())
	}
	if _, _, ok := r.Lookup(grid(5)[4]); ok {
		t.Error("unknown run must miss")
	}
}

// TestJournalTornTail: a crash mid-write leaves a final line without its
// newline (or outright garbage). Resume must keep every intact line,
// drop the tail, and append cleanly after it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	runs := grid(3)
	if err := j.Record(runs[0], &sim.Result{Cycles: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(runs[1], &sim.Result{Cycles: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"workload":"counter","se`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2 (torn tail dropped)", r.Len())
	}
	// Appending after the truncated tail lands on a clean line boundary.
	if err := r.Record(runs[2], &sim.Result{Cycles: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", r2.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"se{`) || !strings.HasSuffix(string(data), "\n") {
		t.Errorf("journal file not on clean line boundaries:\n%s", data)
	}
}

// TestJournalMemoizesEngine: with a journal attached, a second engine
// pass over the same grid executes nothing — every outcome replays.
func TestJournalMemoizesEngine(t *testing.T) {
	j := NewJournal()
	f := &fakeRunner{}
	runs := grid(10)
	eng := Engine{Workers: 4, Tasks: f.run, Journal: j}
	first := eng.Execute(runs)
	if got := len(f.calls); got != 10 {
		t.Fatalf("first pass executed %d runs, want 10", got)
	}
	second := eng.Execute(runs)
	for k, n := range f.calls {
		if n != 1 {
			t.Errorf("run %+v executed %d times across both passes, want 1", k, n)
		}
	}
	if j.Hits() != 10 {
		t.Errorf("journal hits = %d, want 10", j.Hits())
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Res, second[i].Res) {
			t.Errorf("replayed outcome %d differs", i)
		}
	}
}

// TestJournalRecordsFailuresNotInterrupts: failed runs are journaled
// (with kind), interrupted ones are not — a resume must re-execute what
// never ran and replay what failed.
func TestJournalRecordsFailuresNotInterrupts(t *testing.T) {
	j := NewJournal()
	stop := make(chan struct{})
	close(stop) // checkpoint before anything is issued
	eng := Engine{Workers: 2, Tasks: (&fakeRunner{}).run, Journal: j, Stop: stop}
	outs := eng.Execute(grid(6))
	executed := 0
	for _, o := range outs {
		if Classify(o.Err) != FailInterrupted {
			executed++
		}
	}
	if j.Len() != executed {
		t.Errorf("journal has %d entries, %d runs executed — interrupted runs must not be journaled", j.Len(), executed)
	}
}
