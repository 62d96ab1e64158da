package workloads

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory constructs a fresh Workload value. Builtin factories return a
// newly-built value on every call so callers may mutate the result;
// dynamically-registered workloads (compiled specs) are immutable and may
// return a shared instance.
type Factory func() Workload

// Registry is an ordered, concurrency-safe name->workload table. The
// builtin paper kernels are registered at construction; front ends (the
// wspec compiler, library users) register additional workloads at run
// time, and every consumer — the sweep engine, the CLIs, the report
// harness — resolves names through the same table.
type Registry struct {
	mu      sync.RWMutex
	order   []string
	entries map[string]regEntry
}

type regEntry struct {
	desc string
	f    Factory
}

// NewRegistry returns a registry holding only the given factories, in
// order.
func NewRegistry(factories ...Factory) *Registry {
	r := &Registry{entries: make(map[string]regEntry)}
	for _, f := range factories {
		r.Register(f)
	}
	return r
}

// Register adds the factory's workload under its Name. Registering a
// name again replaces the earlier entry but keeps its position, so
// re-resolving a spec reference is idempotent.
func (r *Registry) Register(f Factory) {
	w := f()
	name := w.Name()
	if name == "" {
		panic("workloads: Register with an empty workload name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.entries[name]; !exists {
		r.order = append(r.order, name)
	}
	r.entries[name] = regEntry{desc: w.Description(), f: f}
}

// Lookup returns a fresh instance of the named workload. Unknown names
// produce an error that names the workload and suggests the nearest
// registered matches.
func (r *Registry) Lookup(name string) (Workload, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		return e.f(), nil
	}
	return nil, r.unknownErr(name)
}

func (r *Registry) unknownErr(name string) error {
	names := r.Names()
	if near := nearest(name, names, 3); len(near) > 0 {
		return fmt.Errorf("workloads: unknown workload %q (did you mean %s?)", name, strings.Join(near, ", "))
	}
	return fmt.Errorf("workloads: unknown workload %q (registered: %s)", name, strings.Join(names, ", "))
}

// All returns fresh instances of every registered workload in
// registration order (builtins first, in the paper's presentation
// order).
func (r *Registry) All() []Workload {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Workload, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name].f())
	}
	return out
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Info is one registry listing row.
type Info struct {
	Name        string
	Description string
}

// List returns (name, description) rows in registration order — the
// -list view, without constructing workload values.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, Info{Name: name, Description: r.entries[name].desc})
	}
	return out
}

// nearest returns up to max registered names within a small edit
// distance of name, closest first (ties alphabetical). Spec references
// ("spec:...") are long paths where edit distance is meaningless beyond
// a prefix match, so they only surface on shared prefixes.
func nearest(name string, names []string, max int) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	limit := len(name)/3 + 1
	if limit > 3 {
		limit = 3
	}
	for _, n := range names {
		d := editDistance(name, n, limit)
		if d <= limit {
			cands = append(cands, cand{n, d})
			continue
		}
		// Unique-prefix convenience: "gen" suggests "genome", "genome-sz".
		if len(name) >= 3 && strings.HasPrefix(n, name) {
			cands = append(cands, cand{n, limit + 1})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	})
	var out []string
	for _, c := range cands {
		out = append(out, fmt.Sprintf("%q", c.name))
		if len(out) == max {
			break
		}
	}
	return out
}

// editDistance is the Levenshtein distance between a and b, cut off at
// bound+1 (the exact value above the bound is irrelevant).
func editDistance(a, b string, bound int) int {
	if abs(len(a)-len(b)) > bound {
		return bound + 1
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		best := cur[0]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
			if cur[j] < best {
				best = cur[j]
			}
		}
		if best > bound {
			return bound + 1
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Default is the process-wide registry: the paper's builtin kernels plus
// anything registered dynamically (compiled workload specs).
var Default = NewRegistry(builtinFactories()...)

func builtinFactories() []Factory {
	return []Factory{
		func() Workload { return DefaultGenome() },
		func() Workload { return DefaultGenomeSz() },
		func() Workload { return DefaultIntruder() },
		func() Workload { return DefaultIntruderOpt() },
		func() Workload { return DefaultIntruderOptSz() },
		func() Workload { return DefaultKMeans() },
		func() Workload { return DefaultLabyrinth() },
		func() Workload { return DefaultSSCA2() },
		func() Workload { return DefaultVacation() },
		func() Workload { return DefaultVacationOpt() },
		func() Workload { return DefaultVacationOptSz() },
		func() Workload { return DefaultYada() },
		func() Workload { return DefaultPython() },
		func() Workload { return DefaultPythonOpt() },
		func() Workload { return DefaultCounter() },
	}
}

// Builtins returns the paper's evaluation workloads in presentation
// order (Table 2 / Figure 9 x-axis), followed by the counter
// microbenchmark — excluding any dynamically-registered workloads. Each
// call constructs fresh values, so callers may mutate or Build them
// without affecting other callers.
func Builtins() []Workload {
	fs := builtinFactories()
	out := make([]Workload, len(fs))
	for i, f := range fs {
		out[i] = f()
	}
	return out
}

// All returns fresh instances of every workload in the default registry:
// the builtins in the paper's presentation order, then dynamically
// registered workloads in registration order.
func All() []Workload { return Default.All() }

// Register adds a workload factory to the default registry.
func Register(f Factory) { Default.Register(f) }

// Figure1Names are the eight unmodified workloads of Figure 1.
func Figure1Names() []string {
	return []string{"genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada", "python"}
}

// PaperNames are the fourteen variants of Figures 3, 4, 9 and 10.
func PaperNames() []string {
	return []string{
		"genome", "genome-sz",
		"intruder", "intruder_opt", "intruder_opt-sz",
		"kmeans", "labyrinth", "ssca2",
		"vacation", "vacation_opt", "vacation_opt-sz",
		"yada", "python", "python_opt",
	}
}

// Lookup returns the workload with the given name from the default
// registry.
func Lookup(name string) (Workload, error) { return Default.Lookup(name) }
