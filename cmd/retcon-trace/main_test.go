package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	retcon "repro"
	"repro/internal/telemetry"
)

// record runs counter/RetCon on four cores under the given scheduler
// and writes the event trace to dir.
func record(t *testing.T, dir, name string, sched retcon.SchedKind, seed int64) (string, *retcon.Result) {
	t.Helper()
	cfg := retcon.DefaultConfig()
	cfg.Cores = 4
	cfg.Mode = retcon.ModeRetCon
	cfg.Sched = sched
	w, err := retcon.LookupWorkload("counter")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(telemetry.NewJSONLSink(f), 0)
	res, err := retcon.RunRecorded(w, cfg, seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, res
}

func TestDiffAcceptsBothSchedulers(t *testing.T) {
	dir := t.TempDir()
	a, _ := record(t, dir, "event.jsonl", retcon.SchedEvent, 1)
	b, _ := record(t, dir, "lockstep.jsonl", retcon.SchedLockstep, 1)
	var out strings.Builder
	differs, err := cmdDiff([]string{a, b}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if differs {
		t.Fatalf("schedulers diverged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "traces identical") {
		t.Fatalf("unexpected diff output: %s", out.String())
	}
}

func TestDiffDetectsDivergence(t *testing.T) {
	dir := t.TempDir()
	a, _ := record(t, dir, "a.jsonl", retcon.SchedEvent, 1)
	f, err := os.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadEvents(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	evs[len(evs)/2].A++ // corrupt one payload slot mid-stream
	b := filepath.Join(dir, "b.jsonl")
	bf, err := os.Create(b)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewJSONLSink(bf)
	if err := sink.WriteEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	differs, err := cmdDiff([]string{a, b}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !differs {
		t.Fatal("mutated trace must diff as divergent")
	}
	if !strings.Contains(out.String(), fmt.Sprintf("diverge at event %d", len(evs)/2)) {
		t.Fatalf("diff did not localize the divergence:\n%s", out.String())
	}

	// A clean prefix (truncated trace) is also a difference.
	short := filepath.Join(dir, "short.jsonl")
	sf, err := os.Create(short)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.NewJSONLSink(sf).WriteEvents(evs[:len(evs)/2]); err != nil {
		t.Fatal(err)
	}
	evs[len(evs)/2].A-- // undo the mutation so short is a true prefix of a
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	differs, err = cmdDiff([]string{a, short}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !differs || !strings.Contains(out.String(), "prefix") {
		t.Fatalf("truncated trace must diff as a prefix:\n%s", out.String())
	}
}

func TestSummaryMatchesResultTotals(t *testing.T) {
	dir := t.TempDir()
	path, res := record(t, dir, "run.jsonl", retcon.SchedEvent, 1)
	var out strings.Builder
	if err := cmdSummary([]string{"-counterfactual", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	tot := res.Sim.Totals()
	for _, want := range []string{
		fmt.Sprintf(" commit %d ", tot.Commits),
		fmt.Sprintf(" abort %d ", tot.Aborts),
		fmt.Sprintf(" nack %d ", tot.Nacks),
		"counterfactual abort classes",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary output missing %q:\n%s", want, got)
		}
	}
}

func TestTimelineRuns(t *testing.T) {
	dir := t.TempDir()
	path, _ := record(t, dir, "run.jsonl", retcon.SchedEvent, 1)
	var out strings.Builder
	if err := cmdTimeline([]string{"-buckets", "8", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "8 buckets") {
		t.Fatalf("unexpected timeline output:\n%s", out.String())
	}
	out.Reset()
	if err := cmdTimeline([]string{"-core", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "timeline") {
		t.Fatalf("unexpected filtered timeline output:\n%s", out.String())
	}
}
