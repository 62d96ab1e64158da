package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wspec"
)

// Spec is a declarative experiment grid. The expanded runs are the cross
// product Workloads × Modes × Cores × Seeds over a base machine, with
// Params patched onto every run and each matching Override patched on
// top. Spec files are JSON: one spec object or an array of them (the
// repository ships with no YAML dependency, deliberately).
//
// Empty axes default to: all registered workloads, eager mode, the base
// configuration's core count, and seed 1.
type Spec struct {
	// Name labels the spec in emitted records.
	Name string `json:"name"`
	// Workloads are registry names (see internal/workloads); the special
	// entry "all" expands to the fifteen builtin variants (a fixed set,
	// deliberately independent of dynamic registrations), "paper" to the
	// fourteen variants of Figures 3/4/9/10, and "figure1" to the eight
	// unmodified workloads. A "spec:<path>[?knob=v&...]" entry references
	// a declarative workload-spec file (internal/wspec): expansion
	// compiles it with the given parameter overrides and registers it so
	// the run loop resolves it like any other name. Relative reference
	// paths in a spec file are taken relative to that file.
	Workloads []string `json:"workloads,omitempty"`
	// Modes are "eager", "lazy-vb" and/or "retcon"; "all" expands to the
	// three of them.
	Modes []string `json:"modes,omitempty"`
	Cores []int    `json:"cores,omitempty"`
	Seeds []int64  `json:"seeds,omitempty"`
	// Params patches the base machine for every run of the spec.
	Params ParamPatch `json:"params,omitzero"`
	// Overrides patch individual axis points (e.g. one workload under one
	// mode) on top of Params.
	Overrides []Override `json:"overrides,omitempty"`
}

// Override is a conditional parameter patch: Params applies to every
// expanded run accepted by Match.
type Override struct {
	Match  Match      `json:"match"`
	Params ParamPatch `json:"params"`
}

// Match selects expanded runs by axis value; an absent field matches
// everything. Cores and Seed are pointers so that presence is explicit:
// `"seed": 0` targets seed 0, while omitting the key matches every seed
// (the former int fields conflated the two, making seed 0 and cores 0
// unmatchable). JSON spec files parse identically either way.
type Match struct {
	Workload string `json:"workload,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Cores    *int   `json:"cores,omitempty"`
	Seed     *int64 `json:"seed,omitempty"`
}

// MatchCores returns a Cores matcher value (a convenience for building
// Match literals in Go, where &4 is not an expression).
func MatchCores(n int) *int { return &n }

// MatchSeed returns a Seed matcher value.
func MatchSeed(s int64) *int64 { return &s }

func (m Match) accepts(workload string, mode sim.Mode, cores int, seed int64) (bool, error) {
	if m.Workload != "" && m.Workload != workload {
		return false, nil
	}
	if m.Mode != "" {
		mm, err := ParseMode(m.Mode)
		if err != nil {
			return false, err
		}
		if mm != mode {
			return false, nil
		}
	}
	if m.Cores != nil && *m.Cores != cores {
		return false, nil
	}
	if m.Seed != nil && *m.Seed != seed {
		return false, nil
	}
	return true, nil
}

// ParamPatch is a sparse override of sim.Params: only non-nil fields are
// applied. JSON keys are the snake_case field names.
type ParamPatch struct {
	L1Bytes          *int64 `json:"l1_bytes,omitempty"`
	L2Bytes          *int64 `json:"l2_bytes,omitempty"`
	Ways             *int   `json:"ways,omitempty"`
	L1Hit            *int64 `json:"l1_hit,omitempty"`
	L2Hit            *int64 `json:"l2_hit,omitempty"`
	Hop              *int64 `json:"hop,omitempty"`
	DRAM             *int64 `json:"dram,omitempty"`
	DRAMOccupancy    *int64 `json:"dram_occupancy,omitempty"`
	SpecCapacity     *int   `json:"spec_capacity,omitempty"`
	NackRetry        *int64 `json:"nack_retry,omitempty"`
	AbortBackoffBase *int64 `json:"abort_backoff_base,omitempty"`
	PromoteAfter     *int   `json:"promote_after,omitempty"`
	ViolationPenalty *int   `json:"violation_penalty,omitempty"`

	// RETCON structure sizes (core.Config).
	IVBEntries        *int `json:"ivb_entries,omitempty"`
	ConstraintEntries *int `json:"constraint_entries,omitempty"`
	SSBEntries        *int `json:"ssb_entries,omitempty"`

	// §5.3 idealized-system knobs.
	IdealUnlimited         *bool `json:"ideal_unlimited,omitempty"`
	IdealParallelReacquire *bool `json:"ideal_parallel_reacquire,omitempty"`
	IdealZeroStoreLatency  *bool `json:"ideal_zero_store_latency,omitempty"`

	MaxCycles *int64 `json:"max_cycles,omitempty"`

	// Sched selects the cycle-loop scheduler: "event" (time-skip, the
	// default) or "lockstep" (the reference oracle) — useful for
	// differential sweeps over the whole grid.
	Sched *string `json:"sched,omitempty"`
}

// Apply patches the non-nil fields onto p. It fails only on an invalid
// scheduler name, in which case p is left unmodified.
func (pp *ParamPatch) Apply(p *sim.Params) error {
	var sched sim.SchedKind
	if pp.Sched != nil {
		k, err := sim.ParseSched(*pp.Sched)
		if err != nil {
			return err
		}
		sched = k
	}
	set64 := func(dst *int64, v *int64) {
		if v != nil {
			*dst = *v
		}
	}
	setInt := func(dst *int, v *int) {
		if v != nil {
			*dst = *v
		}
	}
	setBool := func(dst *bool, v *bool) {
		if v != nil {
			*dst = *v
		}
	}
	set64(&p.L1Bytes, pp.L1Bytes)
	set64(&p.L2Bytes, pp.L2Bytes)
	setInt(&p.Ways, pp.Ways)
	set64(&p.L1Hit, pp.L1Hit)
	set64(&p.L2Hit, pp.L2Hit)
	set64(&p.Hop, pp.Hop)
	set64(&p.DRAM, pp.DRAM)
	set64(&p.DRAMOccupancy, pp.DRAMOccupancy)
	setInt(&p.SpecCapacity, pp.SpecCapacity)
	set64(&p.NackRetry, pp.NackRetry)
	set64(&p.AbortBackoffBase, pp.AbortBackoffBase)
	setInt(&p.PromoteAfter, pp.PromoteAfter)
	setInt(&p.ViolationPenalty, pp.ViolationPenalty)
	setInt(&p.Retcon.IVBEntries, pp.IVBEntries)
	setInt(&p.Retcon.ConstraintEntries, pp.ConstraintEntries)
	setInt(&p.Retcon.SSBEntries, pp.SSBEntries)
	setBool(&p.IdealUnlimited, pp.IdealUnlimited)
	setBool(&p.IdealParallelReacquire, pp.IdealParallelReacquire)
	setBool(&p.IdealZeroStoreLatency, pp.IdealZeroStoreLatency)
	set64(&p.MaxCycles, pp.MaxCycles)
	if pp.Sched != nil {
		p.Sched = sched
	}
	return nil
}

// ParseSpecs decodes a spec file: a single JSON spec object or an array
// of them. Unknown fields are rejected so typos fail loudly.
func ParseSpecs(r io.Reader) ([]Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sweep: read spec: %w", err)
	}
	trimmed := strings.TrimSpace(string(data))
	var specs []Spec
	if strings.HasPrefix(trimmed, "[") {
		if err := strictUnmarshal(data, &specs); err != nil {
			return nil, err
		}
	} else {
		var s Spec
		if err := strictUnmarshal(data, &s); err != nil {
			return nil, err
		}
		specs = []Spec{s}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweep: spec file contains no specs")
	}
	return specs, nil
}

func strictUnmarshal(data []byte, v interface{}) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("sweep: parse spec: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("sweep: parse spec: trailing content after the first JSON value (wrap multiple specs in an array)")
	}
	return nil
}

// LoadSpecFile reads and parses one spec file. Relative "spec:" workload
// references are rebased against the spec file's own directory, so a
// grid runs identically from any working directory.
func LoadSpecFile(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	specs, err := ParseSpecs(f)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	for i := range specs {
		wspec.RebaseRefs(specs[i].Workloads, dir)
	}
	return specs, nil
}

// Expand expands the spec over the base machine configuration into the
// deterministic run order: workload-major, then mode, cores, seed.
func (s *Spec) Expand(base sim.Params) ([]Run, error) {
	names, err := s.expandWorkloads()
	if err != nil {
		return nil, err
	}
	modes, err := s.expandModes()
	if err != nil {
		return nil, err
	}
	cores := s.Cores
	if len(cores) == 0 {
		cores = []int{base.Cores}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}

	var runs []Run
	for _, name := range names {
		if err := resolveWorkload(name); err != nil {
			return nil, fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
		for _, mode := range modes {
			for _, nc := range cores {
				for _, seed := range seeds {
					p := base
					if err := s.Params.Apply(&p); err != nil {
						return nil, fmt.Errorf("sweep: spec %q: %w", s.Name, err)
					}
					p.Mode = mode
					p.Cores = nc
					for _, ov := range s.Overrides {
						ok, err := ov.Match.accepts(name, mode, nc, seed)
						if err != nil {
							return nil, fmt.Errorf("sweep: spec %q: %w", s.Name, err)
						}
						if ok {
							if err := ov.Params.Apply(&p); err != nil {
								return nil, fmt.Errorf("sweep: spec %q: %w", s.Name, err)
							}
							// Overrides may not retarget the axes themselves.
							p.Mode = mode
							p.Cores = nc
						}
					}
					if err := p.Validate(); err != nil {
						return nil, fmt.Errorf("sweep: spec %q: %s/%v/%d: %w", s.Name, name, mode, nc, err)
					}
					runs = append(runs, Run{Spec: s.Name, Workload: name, Seed: seed, Params: p})
				}
			}
		}
	}
	return runs, nil
}

func (s *Spec) expandWorkloads() ([]string, error) {
	if len(s.Workloads) == 0 {
		return allNames(), nil
	}
	var out []string
	for _, n := range s.Workloads {
		switch strings.ToLower(n) {
		case "all":
			out = append(out, allNames()...)
		case "paper":
			out = append(out, workloads.PaperNames()...)
		case "figure1":
			out = append(out, workloads.Figure1Names()...)
		default:
			out = append(out, n)
		}
	}
	return out, nil
}

func (s *Spec) expandModes() ([]sim.Mode, error) {
	if len(s.Modes) == 0 {
		return []sim.Mode{sim.Eager}, nil
	}
	var out []sim.Mode
	for _, m := range s.Modes {
		if strings.EqualFold(m, "all") {
			out = append(out, AllModes()...)
			continue
		}
		mode, err := ParseMode(m)
		if err != nil {
			return nil, fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
		out = append(out, mode)
	}
	return out, nil
}

// allNames is the fixed builtin set: "all" must expand identically no
// matter what has been registered dynamically earlier in the process,
// or grid expansion would depend on spec order and process history.
func allNames() []string {
	ws := workloads.Builtins()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	return names
}

// resolveWorkload checks that a workload axis entry is runnable before
// expansion: registry names must exist, and spec references are compiled
// and registered (so the engine's per-run Lookup — possibly on another
// goroutine — finds them by name with zero changes to its run loop).
func resolveWorkload(name string) error {
	if wspec.IsRef(name) {
		_, err := wspec.Resolve(name)
		return err
	}
	_, err := workloads.Lookup(name)
	return err
}

// ExpandWithSeeds expands the spec with the given seed list substituted
// for its own Seeds axis. Grid harnesses that own the seed axis (the
// hypothesis lab pairs treatment and control cells seed by seed) expand
// both grids through this so every cell carries the same seeds in the
// same order; everything else matches Expand.
func (s *Spec) ExpandWithSeeds(base sim.Params, seeds []int64) ([]Run, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sweep: spec %q: ExpandWithSeeds needs at least one seed", s.Name)
	}
	s2 := *s
	s2.Seeds = seeds
	return s2.Expand(base)
}

// ExpandAll expands every spec and concatenates the runs in spec order.
func ExpandAll(specs []Spec, base sim.Params) ([]Run, error) {
	var runs []Run
	for i := range specs {
		rs, err := specs[i].Expand(base)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	return runs, nil
}

// Presets are named ready-made specs for cmd/retcon-sweep.
var presets = map[string]Spec{
	"quick": {
		Name:      "quick",
		Workloads: []string{"counter", "labyrinth"},
		Modes:     []string{"all"},
		Cores:     []int{4},
	},
	"figure1": {
		Name:      "figure1",
		Workloads: []string{"figure1"},
		Modes:     []string{"eager"},
	},
	"paper": {
		Name:      "paper",
		Workloads: []string{"paper"},
		Modes:     []string{"all"},
	},
	"modes": {
		Name:      "modes",
		Workloads: []string{"all"},
		Modes:     []string{"all"},
	},
	"scaling": {
		Name:      "scaling",
		Workloads: []string{"genome-sz", "intruder_opt-sz", "vacation_opt-sz", "python_opt"},
		Modes:     []string{"retcon"},
		Cores:     []int{1, 2, 4, 8, 16, 32},
	},
	"seeds": {
		Name:      "seeds",
		Workloads: []string{"genome", "python_opt"},
		Modes:     []string{"all"},
		Seeds:     []int64{1, 2, 3, 4, 5},
	},
}

// Preset returns the named preset spec.
func Preset(name string) (Spec, error) {
	s, ok := presets[name]
	if !ok {
		return Spec{}, fmt.Errorf("sweep: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
	}
	return s, nil
}

// PresetNames lists the presets in sorted order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
