package report

import (
	"bytes"
	"strings"
	"testing"

	retcon "repro"
	"repro/internal/sweep"
)

// testHarness uses a small machine so report tests stay fast; the full
// 32-core regeneration is cmd/paperbench and the bench harness.
func testHarness() *Harness {
	cfg := retcon.DefaultConfig()
	cfg.Cores = 4
	return NewHarness(cfg)
}

func TestRunCaching(t *testing.T) {
	h := testHarness()
	r1, err := h.Run("counter", retcon.ModeEager, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run("counter", retcon.ModeEager, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sim != r2.Sim {
		t.Error("identical runs must be served from the journal")
	}
	if _, err := h.Run("bogus", retcon.ModeEager, 4); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestSpeedupSanity(t *testing.T) {
	h := testHarness()
	s, err := h.Speedup("labyrinth", retcon.ModeEager)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s > 4 {
		t.Errorf("4-core speedup %f out of (0,4]", s)
	}
}

func TestFigure9RowsAndRendering(t *testing.T) {
	h := testHarness()
	rows, err := h.speedups([]string{"counter"}, []retcon.Mode{retcon.ModeEager, retcon.ModeLazyVB, retcon.ModeRetCon})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("row count %d, want 3", len(rows))
	}
	var buf bytes.Buffer
	WriteSpeedups(&buf, "test", rows)
	out := buf.String()
	if !strings.Contains(out, "counter") || !strings.Contains(out, "RetCon") {
		t.Errorf("rendering missing fields:\n%s", out)
	}
}

func TestBreakdownRows(t *testing.T) {
	h := testHarness()
	rows, err := h.breakdownsFor([]string{"counter"}, []retcon.Mode{retcon.ModeEager, retcon.ModeRetCon})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.Busy + r.Barrier + r.Conflict + r.Other
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s/%v: breakdown sums to %f", r.Workload, r.Mode, sum)
		}
		if r.Mode == retcon.ModeEager && (r.NormRuntime < 0.999 || r.NormRuntime > 1.001) {
			t.Errorf("eager row must normalize to 1.0, got %f", r.NormRuntime)
		}
	}
	var buf bytes.Buffer
	WriteBreakdowns(&buf, "test", rows)
	if !strings.Contains(buf.String(), "conflict") {
		t.Error("breakdown rendering missing header")
	}
}

func TestTable3Rendering(t *testing.T) {
	h := testHarness()
	r, err := h.Run("counter", retcon.ModeRetCon, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Table3Row{{Workload: "counter", Row: r.Sim.Table3()}}
	var buf bytes.Buffer
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "counter") {
		t.Error("table 3 rendering missing workload")
	}
}

func TestTable2Rendering(t *testing.T) {
	var buf bytes.Buffer
	WriteTable2(&buf)
	for _, name := range []string{"genome-sz", "python_opt", "yada"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("table 2 missing %s", name)
		}
	}
}

// TestParallelHarnessMatchesSerial renders the same figure with a 1-worker
// and a 4-worker pool and requires byte-identical output — the sweep
// engine must not perturb results or row order.
func TestParallelHarnessMatchesSerial(t *testing.T) {
	render := func(workers int) string {
		h := testHarness()
		h.Workers = workers
		rows, err := h.speedups([]string{"counter", "labyrinth"},
			[]retcon.Mode{retcon.ModeEager, retcon.ModeLazyVB, retcon.ModeRetCon})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteSpeedups(&buf, "t", rows)
		return buf.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Errorf("parallel output differs from serial:\n--- serial\n%s--- parallel\n%s", serial, parallel)
	}
}

func TestSinks(t *testing.T) {
	recs := []sweep.Record{
		{Spec: "s", Workload: "counter", Mode: "eager", Cores: 4, Seed: 1, Cycles: 100, Commits: 8},
		{Spec: "s", Workload: "counter", Mode: "RetCon", Cores: 4, Seed: 1, Cycles: 80, Speedup: 1.25},
	}
	var jl bytes.Buffer
	js := NewJSONLSink(&jl)
	for _, r := range recs {
		if err := js.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"speedup":1.25`) {
		t.Errorf("jsonl output:\n%s", jl.String())
	}

	var cb bytes.Buffer
	cs := NewCSVSink(&cb)
	for _, r := range recs {
		if err := cs.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(csvLines) != 3 || !strings.HasPrefix(csvLines[0], "spec,workload,mode,cores,seed") {
		t.Errorf("csv output:\n%s", cb.String())
	}

	var tb bytes.Buffer
	WriteRecords(&tb, "title", recs)
	if !strings.Contains(tb.String(), "counter") || !strings.Contains(tb.String(), "1.25x") {
		t.Errorf("table output:\n%s", tb.String())
	}
}

func TestIdealComparison(t *testing.T) {
	h := testHarness()
	rows, err := h.IdealComparison([]string{"counter"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Ideal <= 0 {
		t.Fatalf("ideal rows: %+v", rows)
	}
	var buf bytes.Buffer
	WriteIdeal(&buf, rows)
	if !strings.Contains(buf.String(), "counter") {
		t.Error("ideal rendering missing workload")
	}
}
