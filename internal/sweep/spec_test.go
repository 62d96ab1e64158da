package sweep

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestParseSpecsObjectAndArray(t *testing.T) {
	specs, err := ParseSpecs(strings.NewReader(`{
		"name": "one",
		"workloads": ["counter"],
		"modes": ["retcon"],
		"cores": [4],
		"seeds": [1, 2]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "one" {
		t.Fatalf("specs = %+v", specs)
	}

	specs, err = ParseSpecs(strings.NewReader(`[
		{"name": "a", "workloads": ["counter"]},
		{"name": "b", "workloads": ["labyrinth"], "modes": ["all"]}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1].Name != "b" {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestParseSpecsRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpecs(strings.NewReader(`{"name": "x", "wrkloads": ["counter"]}`)); err == nil {
		t.Fatal("typo'd field must be rejected")
	}
	if _, err := ParseSpecs(strings.NewReader(``)); err == nil {
		t.Fatal("empty input must be rejected")
	}
	// Back-to-back objects (JSONL-style) must be rejected, not silently
	// truncated to the first spec.
	if _, err := ParseSpecs(strings.NewReader(
		`{"name": "a", "workloads": ["counter"]}` + "\n" + `{"name": "b", "workloads": ["counter"]}`)); err == nil {
		t.Fatal("trailing JSON content must be rejected")
	}
}

func TestExpandGridOrderAndDefaults(t *testing.T) {
	s := Spec{
		Name:      "grid",
		Workloads: []string{"counter", "labyrinth"},
		Modes:     []string{"eager", "retcon"},
		Cores:     []int{2, 4},
		Seeds:     []int64{1, 7},
	}
	runs, err := s.Expand(sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*2*2*2 {
		t.Fatalf("expanded %d runs, want 16", len(runs))
	}
	// Workload-major, then mode, cores, seed.
	first := runs[0]
	if first.Workload != "counter" || first.Params.Mode != sim.Eager || first.Params.Cores != 2 || first.Seed != 1 {
		t.Errorf("first run = %+v", first)
	}
	last := runs[15]
	if last.Workload != "labyrinth" || last.Params.Mode != sim.RetCon || last.Params.Cores != 4 || last.Seed != 7 {
		t.Errorf("last run = %+v", last)
	}

	// Defaults: empty modes/cores/seeds.
	d := Spec{Name: "d", Workloads: []string{"counter"}}
	runs, err = d.Expand(sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Params.Mode != sim.Eager ||
		runs[0].Params.Cores != sim.DefaultParams().Cores || runs[0].Seed != 1 {
		t.Errorf("default expansion = %+v", runs)
	}
}

func TestExpandDeterministic(t *testing.T) {
	s := Spec{Name: "det", Workloads: []string{"paper"}, Modes: []string{"all"}, Seeds: []int64{1, 2}}
	a, err := s.Expand(sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Expand(sim.DefaultParams())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs across expansions", i)
		}
	}
}

func TestExpandParamsAndOverrides(t *testing.T) {
	cap8, cap99 := 8, 99
	s := Spec{
		Name:      "ov",
		Workloads: []string{"counter", "labyrinth"},
		Modes:     []string{"eager", "retcon"},
		Cores:     []int{4},
		Params:    ParamPatch{SpecCapacity: &cap8},
		Overrides: []Override{
			{Match: Match{Workload: "labyrinth", Mode: "retcon"}, Params: ParamPatch{SpecCapacity: &cap99}},
		},
	}
	runs, err := s.Expand(sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		want := cap8
		if r.Workload == "labyrinth" && r.Params.Mode == sim.RetCon {
			want = cap99
		}
		if r.Params.SpecCapacity != want {
			t.Errorf("%s/%v: SpecCapacity = %d, want %d", r.Workload, r.Params.Mode, r.Params.SpecCapacity, want)
		}
	}
}

// TestMatchPresenceSemantics pins the explicit-presence contract: an
// absent Cores/Seed matcher matches every run, while a present one —
// including the zero value — matches exactly that axis point. The former
// int fields conflated "unset" with 0, so a matcher could never target
// seed 0.
func TestMatchPresenceSemantics(t *testing.T) {
	cases := []struct {
		name string
		m    Match
		ok   bool
	}{
		{"empty matches all", Match{}, true},
		{"seed present match", Match{Seed: MatchSeed(0)}, true},
		{"seed present mismatch", Match{Seed: MatchSeed(1)}, false},
		{"cores present match", Match{Cores: MatchCores(4)}, true},
		{"cores present mismatch", Match{Cores: MatchCores(0)}, false},
		{"all axes", Match{Workload: "counter", Mode: "eager", Cores: MatchCores(4), Seed: MatchSeed(0)}, true},
		{"workload mismatch", Match{Workload: "genome"}, false},
	}
	for _, c := range cases {
		got, err := c.m.accepts("counter", sim.Eager, 4, 0)
		if err != nil || got != c.ok {
			t.Errorf("%s: accepts = %v, %v; want %v", c.name, got, err, c.ok)
		}
	}
	if _, err := (Match{Mode: "warp"}).accepts("counter", sim.Eager, 4, 0); err == nil {
		t.Error("invalid mode matcher must error")
	}
}

// TestMatchSeedZeroOverride: a spec override targeting seed 0 applies to
// seed 0 only — end to end through JSON parsing, which must treat
// `"seed": 0` as present.
func TestMatchSeedZeroOverride(t *testing.T) {
	specs, err := ParseSpecs(strings.NewReader(`{
		"name": "z",
		"workloads": ["counter"],
		"modes": ["eager"],
		"cores": [2],
		"seeds": [0, 1],
		"overrides": [
			{"match": {"seed": 0}, "params": {"spec_capacity": 77}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := specs[0].Expand(sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("expanded %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		want := sim.DefaultParams().SpecCapacity
		if r.Seed == 0 {
			want = 77
		}
		if r.Params.SpecCapacity != want {
			t.Errorf("seed %d: SpecCapacity = %d, want %d", r.Seed, r.Params.SpecCapacity, want)
		}
	}
}

// TestExpandSpecReference: a "spec:<path>?knob=v" workload entry is
// compiled, registered under the full reference, and runnable by the
// engine's unchanged run loop.
func TestExpandSpecReference(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.json")
	doc := `{
	  "name": "tiny",
	  "params": {"txs": 12},
	  "objects": [{"name": "c", "kind": "counter"}],
	  "threads": [{"phases": [{"tx": true, "iters": "$txs",
	    "ops": [{"op": "fetch_add", "object": "c"}]}]}]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := "spec:" + path + "?txs=24"
	s := Spec{Name: "ref", Workloads: []string{ref}, Modes: []string{"all"}, Cores: []int{2}}
	runs, err := s.Expand(sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("expanded %d runs, want 3", len(runs))
	}
	if _, err := workloads.Lookup(ref); err != nil {
		t.Fatalf("expansion did not register the reference: %v", err)
	}
	eng := Engine{Workers: 2}
	for _, o := range eng.Execute(runs) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Res.Totals().Commits != 24 {
			t.Fatalf("%v: %d commits, want the overridden 24", o.Run.Params.Mode, o.Res.Totals().Commits)
		}
	}
	// A broken reference fails expansion with a spec-level error.
	bad := Spec{Name: "bad", Workloads: []string{"spec:" + filepath.Join(dir, "absent.json")}}
	if _, err := bad.Expand(sim.DefaultParams()); err == nil {
		t.Error("missing spec file must fail expansion")
	}
}

func TestExpandRejectsUnknownWorkloadAndMode(t *testing.T) {
	s := Spec{Name: "bad", Workloads: []string{"bogus"}}
	if _, err := s.Expand(sim.DefaultParams()); err == nil {
		t.Error("unknown workload must fail expansion")
	}
	s = Spec{Name: "bad", Workloads: []string{"counter"}, Modes: []string{"chaotic"}}
	if _, err := s.Expand(sim.DefaultParams()); err == nil {
		t.Error("unknown mode must fail expansion")
	}
}

func TestExpandSpecialWorkloadSets(t *testing.T) {
	// "all" is the fixed builtin set, unaffected by whatever other tests
	// registered dynamically in this binary.
	for name, want := range map[string]int{"all": len(workloads.Builtins()), "paper": 14, "figure1": 8} {
		s := Spec{Name: name, Workloads: []string{name}}
		runs, err := s.Expand(sim.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != want {
			t.Errorf("%q expands to %d runs, want %d", name, len(runs), want)
		}
	}
}

func TestParamPatchApply(t *testing.T) {
	ivb := 4
	dram := int64(250)
	ideal := true
	sched := "lockstep"
	p := sim.DefaultParams()
	patch := ParamPatch{IVBEntries: &ivb, DRAM: &dram, IdealUnlimited: &ideal, Sched: &sched}
	if err := patch.Apply(&p); err != nil {
		t.Fatal(err)
	}
	if p.Retcon.IVBEntries != 4 || p.DRAM != 250 || !p.IdealUnlimited || p.Sched != sim.SchedLockstep {
		t.Errorf("patch not applied: %+v", p)
	}
	// Untouched fields keep defaults.
	if p.L1Bytes != sim.DefaultParams().L1Bytes {
		t.Error("unpatched field modified")
	}
	bad := "cycle-accurate"
	if err := (&ParamPatch{Sched: &bad}).Apply(&p); err == nil {
		t.Error("invalid scheduler name must fail")
	}
}

// TestExpandSchedPatch: a sched patch in a spec expands into runs whose
// Params carry the scheduler, so differential sweeps can pit the event
// scheduler against the lockstep oracle across the whole grid.
func TestExpandSchedPatch(t *testing.T) {
	sched := "lockstep"
	s := Spec{
		Name:      "diff",
		Workloads: []string{"counter"},
		Params:    ParamPatch{Sched: &sched},
	}
	runs, err := s.Expand(sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Params.Sched != sim.SchedLockstep {
		t.Errorf("sched patch not expanded: %+v", runs)
	}
	bad := "warp"
	s.Params.Sched = &bad
	if _, err := s.Expand(sim.DefaultParams()); err == nil {
		t.Error("invalid sched in spec must fail expansion")
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]sim.Mode{
		"eager": sim.Eager, "EAGER": sim.Eager,
		"lazy-vb": sim.LazyVB, "lazyvb": sim.LazyVB, "lazy_vb": sim.LazyVB,
		"retcon": sim.RetCon, "RetCon": sim.RetCon,
	}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("optimistic"); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		s, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := s.Expand(sim.DefaultParams())
		if err != nil {
			t.Fatalf("preset %q does not expand: %v", name, err)
		}
		if len(runs) == 0 {
			t.Errorf("preset %q expands to zero runs", name)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset must error")
	}
}

// TestParamPatchApplyAtomic: an invalid patch must leave the target
// Params untouched, including fields that precede the failing one.
func TestParamPatchApplyAtomic(t *testing.T) {
	dram := int64(250)
	bad := "warp"
	p := sim.DefaultParams()
	if err := (&ParamPatch{DRAM: &dram, Sched: &bad}).Apply(&p); err == nil {
		t.Fatal("invalid sched must fail")
	}
	if p.DRAM != sim.DefaultParams().DRAM {
		t.Error("failed Apply must not half-apply the patch")
	}
}

// TestExpandRejectsUnbuildableParams: a sweep spec whose params no machine
// can be built or run with fails expansion with the *sim.ParamError naming
// the field, before any run starts (these used to panic in the cache
// constructor or run to the cycle watchdog).
func TestExpandRejectsUnbuildableParams(t *testing.T) {
	for _, tc := range []struct{ params, field string }{
		{`{"l2_bytes": 0}`, "L2Bytes"},
		{`{"l1_bytes": 1000}`, "L1Bytes"},
		{`{"ways": 3}`, "Ways"},
		{`{"ways": 0}`, "Ways"},
		{`{"spec_capacity": -1}`, "SpecCapacity"},
		{`{"spec_capacity": 0}`, "SpecCapacity"},
		{`{"l1_hit": -1}`, "L1Hit"},
		{`{"l2_hit": -1}`, "L2Hit"},
		{`{"hop": -1}`, "Hop"},
		{`{"dram": -1}`, "DRAM"},
		{`{"dram_occupancy": -1}`, "DRAMOccupancy"},
	} {
		specs, err := ParseSpecs(strings.NewReader(`{"name": "bad", "workloads": ["counter"], "cores": [2], "params": ` + tc.params + `}`))
		if err != nil {
			t.Fatalf("%s: %v", tc.params, err)
		}
		_, err = ExpandAll(specs, sim.DefaultParams())
		var pe *sim.ParamError
		if !errors.As(err, &pe) || pe.Field != tc.field {
			t.Errorf("params %s: expansion error %v, want a *sim.ParamError naming %s", tc.params, err, tc.field)
		}
	}
}
