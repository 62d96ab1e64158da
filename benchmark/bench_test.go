package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLayerCoverage runs a short traced pass of every workload and
// asserts the count pattern the workload choice rests on, so a workload
// that silently stops exercising its layer fails here.
func TestLayerCoverage(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, 1, 40, filepath.Join("..", "examples", "workloads"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := measure(w, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, failed, problems := m.verdict(); failed != 0 || len(problems) != 0 {
			t.Fatalf("%s: %d failed items, problems %q", name, failed, problems)
		}
		layers[name] = map[string]float64{}
		for _, mt := range perLayer(m) {
			layers[name][mt.name] = mt.value
		}
	}
	eager, retcon, campaign := layers["eager-contention"], layers["retcon-repair"], layers["fuzz-campaign"]

	var coreNames []string
	for name := range eager {
		if strings.HasPrefix(name, "core.") {
			coreNames = append(coreNames, name)
		}
	}
	slices.Sort(coreNames)
	if len(coreNames) == 0 {
		t.Fatal("no core.* metrics reported")
	}
	for _, name := range coreNames {
		if eager[name] != 0 {
			t.Errorf("eager-contention: %s = %g, want 0 (no RETCON work in eager mode)", name, eager[name])
		}
	}
	for _, name := range []string{"core.repairs", "core.repair_cycles", "core.tracked_blocks", "core.repair_vs_replay_delta_mean"} {
		if retcon[name] == 0 {
			t.Errorf("retcon-repair: %s = 0, want nonzero", name)
		}
	}
	if aborts := retcon["core.aborts.violation"] + retcon["core.aborts.unfoldable"] + retcon["core.aborts.struct-overflow"]; aborts == 0 {
		t.Error("retcon-repair: no RETCON-specific abort, want some")
	}
	if e, r := eager["sim.dense_cycle_frac"], retcon["sim.dense_cycle_frac"]; e >= r {
		t.Errorf("sim.dense_cycle_frac: eager-contention %g >= retcon-repair %g, want the event loops to dominate eager", e, r)
	}
	if eager["coherence.nacks"] == 0 || eager["htm.aborts.conflict"] == 0 {
		t.Errorf("eager-contention: nacks %g, conflict aborts %g, want both nonzero", eager["coherence.nacks"], eager["htm.aborts.conflict"])
	}
	if campaign["fuzz.divergences"] != 0 {
		t.Errorf("fuzz-campaign: %g divergences", campaign["fuzz.divergences"])
	}
	for wl, names := range map[string][]string{
		"eager-contention": {"sim.run_share", "workloads.build_share"},
		"retcon-repair":    {"sim.run_share", "workloads.build_share", "wspec.compile_ms", "sweep.pool_reuse_frac"},
		"fuzz-campaign":    {"fuzz.generate_share", "fuzz.check_share"},
	} {
		for _, name := range names {
			if layers[wl][name] <= 0 {
				t.Errorf("%s: %s = %g, want positive", wl, name, layers[wl][name])
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "item", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50},  // overlaps a
		{name: "c", parent: 0, start: 90, end: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30, 30}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestDeriveSeeds(t *testing.T) {
	a, b := deriveSeeds(1, "w", 4), deriveSeeds(1, "w", 4)
	if !slices.Equal(a, b) {
		t.Errorf("same seed, different inputs: %v vs %v", a, b)
	}
	if c := deriveSeeds(2, "w", 4); slices.Equal(a, c) {
		t.Errorf("seeds 1 and 2 derive the same inputs %v", a)
	}
	if d := deriveSeeds(1, "v", 4); slices.Equal(a, d) {
		t.Errorf("two workloads derive the same inputs %v", a)
	}
	for _, s := range a {
		if s < 0 {
			t.Errorf("negative derived seed %d", s)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.TailPct != 90 || s.P50 != 50.5 {
		t.Errorf("summarize(1..100) = %+v, want n=100, tail p90, median 50.5", s)
	}
	if s := summarize(xs[:10]); s.TailPct != 50 {
		t.Errorf("10 samples: tail p%d, want the median (p50)", s.TailPct)
	}
}
