package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"time"
	"weak"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/internal/wspec"
)

// gridPoint is one group of workloads simulated at one core count, each
// at the first nseeds of the grid's input seeds.
type gridPoint struct {
	workloads []string
	cores     int
	nseeds    int
}

// grid is a sweep-grid workload: one conflict-handling mode over fixed
// (workload, cores) points, each at its share of the derived input
// seeds, executed by the sweep engine on one worker.
type grid struct {
	name    string
	mode    string
	points  []gridPoint
	presets []string // wspec preset files, run at the first point's cores
	seeds   []int64

	runs      []sweep.Run
	index     map[sweep.Run]int
	compileMS []float64 // per set-up: total wspec compile time

	ref []*sim.Result // Results of the first pass; later passes must match

	pool sim.MachinePool // the traced task's machines
	mu   sync.Mutex
	seen map[weak.Pointer[sim.Machine]]bool
}

func (g *grid) workers() int      { return 1 }
func (g *grid) itemsPerPass() int { return len(g.runs) }

func (g *grid) describeSeeds() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload build seeds %v;", g.seeds)
	for _, p := range g.points {
		fmt.Fprintf(&b, " %s@%d run the first %d;", strings.Join(p.workloads, ","), p.cores, min(p.nseeds, len(g.seeds)))
	}
	if len(g.presets) > 0 {
		b.WriteString(" the wspec presets run the first")
	}
	return strings.TrimSuffix(b.String(), ";")
}

// setup resolves every workload, compiles the wspec presets and expands
// the grid. wspec.Resolve registers a preset once per process, so the
// compile it performs on first use is repeated explicitly here: every
// set-up then pays for it, and its time is wspec.compile_ms.
func (g *grid) setup() error {
	var compile time.Duration
	refs := make([]string, len(g.presets))
	for i, path := range g.presets {
		refs[i] = wspec.RefPrefix + path
		t0 := time.Now()
		spec, err := wspec.LoadFile(path)
		if err != nil {
			return err
		}
		if _, err := spec.Compile(refs[i], nil); err != nil {
			return err
		}
		compile += time.Since(t0)
	}
	g.compileMS = append(g.compileMS, ms(compile))

	var specs []sweep.Spec
	for _, p := range g.points {
		specs = append(specs, sweep.Spec{Name: g.name, Workloads: p.workloads, Modes: []string{g.mode}, Cores: []int{p.cores}, Seeds: g.seeds[:min(p.nseeds, len(g.seeds))]})
	}
	// The presets are tiny next to the builtins; one seed each keeps them
	// from outnumbering the builtins in the per-run latency sample.
	if len(refs) > 0 {
		specs = append(specs, sweep.Spec{Name: g.name, Workloads: refs, Modes: []string{g.mode}, Cores: []int{g.points[0].cores}, Seeds: g.seeds[:1]})
	}
	runs, err := sweep.ExpandAll(specs, sim.DefaultParams())
	if err != nil {
		return err
	}
	index := make(map[sweep.Run]int, len(runs))
	for i, r := range runs {
		index[r] = i
	}
	g.runs, g.index = runs, index
	return nil
}

// pass executes the grid once, one engine call per run, and an item's
// latency is its call's wall time. One call for the whole grid would
// time an item as the gap between emissions, but on one Go processor the
// emitting goroutine waits for the worker to be preempted, so a run's
// time would leak into its neighbours'. Untraced, the engine runs its
// default simulator runner; traced, it runs tracedTask instead.
func (g *grid) pass(traced bool) *passResult {
	n := len(g.runs)
	pr := &passResult{traced: traced, itemMS: make([]float64, n)}
	eng := sweep.Engine{Workers: g.workers()}
	if traced {
		pr.trace = newPassTrace(n)
		pr.sched = make([]sim.SchedStats, n)
		eng.Tasks = g.tracedTask(pr)
	}
	outs := make([]sweep.Outcome, 0, n)
	_, discards0 := sweep.PoolStats()
	rt0 := readRuntime()
	stopHeap := heapPeak()
	start := time.Now()
	if traced {
		pr.trace.start = start
	}
	for i := range g.runs {
		t0 := time.Now()
		eng.ExecuteStream(g.runs[i:i+1], func(o sweep.Outcome) { outs = append(outs, o) })
		pr.itemMS[i] = ms(time.Since(t0))
	}
	pr.wall = time.Since(start)
	pr.heapPeak = stopHeap()
	pr.runtime = readRuntime().sub(rt0)
	_, discards1 := sweep.PoolStats()
	pr.poolDiscards = discards1 - discards0

	h := fnv.New64a()
	results := make([]*sim.Result, n)
	for i, o := range outs {
		if o.Err != nil {
			pr.fail(fmt.Errorf("%s/%v/%d seed %d: %w", o.Run.Workload, o.Run.Params.Mode, o.Run.Params.Cores, o.Run.Seed, o.Err))
			continue
		}
		results[i] = o.Res
		digestResult(h, o.Res)
		pr.instrs += o.Res.Totals().Instrs
	}
	pr.attempted = n
	pr.digest = h.Sum64()
	if g.ref == nil {
		g.ref = results
	} else {
		for i := range results {
			if !reflect.DeepEqual(results[i], g.ref[i]) {
				pr.mismatch(fmt.Sprintf("%s seed %d: Result differs from the first pass", g.runs[i].Workload, g.runs[i].Seed))
			}
		}
	}
	pr.results = results
	return pr
}

// tracedTask is the engine task of a traced pass: the same public calls,
// in the same order and under the same machine-quarantine rule, as
// sweep.SimRunner, with a span around each.
func (g *grid) tracedTask(pr *passResult) sweep.TaskFunc {
	tr := pr.trace
	pr.reused = make([]bool, len(g.runs))
	return func(t sweep.Task) (*sim.Result, error) {
		r := t.Run
		i, ok := g.index[r]
		if !ok {
			return nil, fmt.Errorf("bench: run %s seed %d is not in the grid", r.Workload, r.Seed)
		}
		item := tr.begin(i, spanItem, -1)
		defer tr.end(i, item)

		w, err := workloads.Lookup(r.Workload)
		if err != nil {
			return nil, err
		}
		s := tr.begin(i, spanBuild, item)
		bundle := w.Build(r.Params.Cores, r.Seed)
		tr.end(i, s)

		s = tr.begin(i, spanAcquire, item)
		m, err := g.pool.Get(r.Params, bundle.Mem, bundle.Programs)
		tr.end(i, s)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", r.Workload, err)
		}
		pr.reused[i] = g.remember(m)
		succeeded := false
		defer func() {
			if t.OnMachine != nil {
				t.OnMachine(nil)
			}
			if succeeded {
				g.pool.Put(m)
			} else {
				g.pool.Discard(m)
			}
		}()
		if t.OnMachine != nil {
			t.OnMachine(m)
		}

		s = tr.begin(i, spanRun, item)
		res, err := m.Run()
		tr.end(i, s)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", r.Workload, err)
		}
		pr.sched[i] = m.SchedStats()

		if bundle.Verify != nil {
			s = tr.begin(i, spanVerify, item)
			err := bundle.Verify(bundle.Mem)
			tr.end(i, s)
			if err != nil {
				return nil, fmt.Errorf("bench: %s verify: %w", r.Workload, err)
			}
		}
		succeeded = true
		return res, nil
	}
}

// remember reports whether the pool handed out a machine it had handed
// out before. Weak pointers identify machines without keeping dropped
// ones alive.
func (g *grid) remember(m *sim.Machine) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seen == nil {
		g.seen = make(map[weak.Pointer[sim.Machine]]bool)
	}
	k := weak.Make(m)
	if g.seen[k] {
		return true
	}
	g.seen[k] = true
	return false
}

// digestResult folds the run's simulated statistics into h: cycles,
// instructions, commits, aborts by cause, NACKs and repair counts.
func digestResult(h interface{ Write([]byte) (int, error) }, res *sim.Result) {
	t := res.Totals()
	vals := []int64{res.Cycles, t.Instrs, t.Commits, t.Aborts, t.Nacks,
		res.Metrics.RepairLat.Count, res.Metrics.RepairLat.Sum}
	for c := telemetry.Cause(0); c < telemetry.NumCauses; c++ {
		vals = append(vals, res.Metrics.AbortCause[c])
	}
	var b [8]byte
	for _, v := range vals {
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
	}
}

type pointMS struct {
	name string
	ms   float64
}

// pointLatency is the median per-run latency of each (workload, cores)
// point over the given passes, in grid order.
func (g *grid) pointLatency(passes []*passResult) []pointMS {
	var order []string
	byPoint := map[string][]float64{}
	for i, r := range g.runs {
		k := fmt.Sprintf("%s@%d", r.Workload, r.Params.Cores)
		if _, ok := byPoint[k]; !ok {
			order = append(order, k)
		}
		for _, p := range passes {
			byPoint[k] = append(byPoint[k], p.itemMS[i])
		}
	}
	out := make([]pointMS, len(order))
	for i, k := range order {
		out[i] = pointMS{k, median(byPoint[k])}
	}
	return out
}
