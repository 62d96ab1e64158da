// Command benchmark is the repository's benchmark: it runs one named
// workload through the simulator's public entry points for a fixed
// number of host seconds, checks that every output is correct, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash benchmark/run.sh --workload eager-contention --seed 1 --seconds 35 --trace 0
//
// README.md in this directory explains the workloads, the metrics and
// how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/sim"
)

// workload is one benchmark workload. setup may be called several times;
// the last call's state is what pass runs.
type workload interface {
	setup() error
	pass(traced bool) *passResult
	itemsPerPass() int
	workers() int
	describeSeeds() string
}

// passResult is everything one pass produced.
type passResult struct {
	traced    bool
	wall      time.Duration
	itemMS    []float64
	attempted int
	failed    int
	errs      []string
	digest    uint64
	instrs    int64 // simulated instructions (grid workloads)
	heapPeak  uint64
	runtime   runtimeCounters

	poolDiscards int64 // machines the sweep pool quarantined (untraced grid passes)

	results     []*sim.Result    // grid workloads, per item
	mismatched  int              // items whose Result differs from the first pass's
	mismatches  []string         // the first maxReported of them
	trace       *passTrace       // traced passes
	sched       []sim.SchedStats // traced grid passes, per item
	reused      []bool           // traced grid passes: pool handed out a used machine
	divergences int              // fuzz-campaign
}

const maxReported = 5

func (pr *passResult) fail(err error) {
	pr.failed++
	if len(pr.errs) < maxReported {
		pr.errs = append(pr.errs, err.Error())
	}
}

func (pr *passResult) mismatch(msg string) {
	pr.mismatched++
	if len(pr.mismatches) < maxReported {
		pr.mismatches = append(pr.mismatches, msg)
	}
}

// Sizes of the default workloads; see README.md for why.
const (
	gridSeeds     = 4    // input seeds of a full grid point
	campaignSeeds = 1000 // generator seeds per fuzz pass
	setupFirst    = 21   // set-up samples before the first timed pass
	setupPerPass  = 5    // set-up samples before every later one
)

var workloadNames = []string{"eager-contention", "retcon-repair", "fuzz-campaign"}

// presetFiles are the declarative workload presets retcon-repair runs,
// listed rather than globbed so an added preset does not silently change
// the workload.
var presetFiles = []string{
	"aux-counter.json", "barrier-phased.json", "false-sharing.json", "lane-log.json",
	"prodcons-queue.json", "reader-probe.json", "zipf-hotset.json",
}

// newWorkload builds the named workload with every input derived from
// seed. seedsPer is the input seeds of a full grid point (some points
// run half or twice as many), fuzzSeeds the campaign's seeds per pass;
// presetDir holds the wspec presets.
func newWorkload(name string, seed int64, seedsPer, fuzzSeeds int, presetDir string) (workload, error) {
	switch name {
	case "eager-contention":
		// Per-point seed counts put as many runs below intruder@32 as
		// above it, so the per-run latency median falls inside
		// intruder's cluster, whose simulated work barely moves with the
		// seed; vacation's moves by up to a third, so it is kept off the
		// median. See README.md.
		return &grid{
			name: name, mode: "eager",
			points: []gridPoint{
				{[]string{"counter", "python_opt", "intruder"}, 32, seedsPer},
				{[]string{"vacation"}, 32, max(1, seedsPer/2)},
				{[]string{"labyrinth", "yada", "ssca2"}, 64, max(1, seedsPer/2)},
			},
			seeds: deriveSeeds(seed, name, seedsPer),
		}, nil
	case "retcon-repair":
		presets := make([]string, len(presetFiles))
		for i, f := range presetFiles {
			presets[i] = filepath.ToSlash(filepath.Join(presetDir, f))
		}
		// python_opt, the slowest point, and counter, among the fastest,
		// run twice as many seeds, so that the 90th latency percentile
		// falls inside python_opt's runs rather than on the gap below
		// them, while the median stays on genome-sz. Neither point's
		// simulated work moves with the seed by more than a few percent.
		return &grid{
			name: name, mode: "retcon",
			points: []gridPoint{
				{[]string{"python_opt", "counter"}, 32, 2 * seedsPer},
				{[]string{"genome-sz", "intruder_opt-sz", "vacation_opt-sz", "vacation", "kmeans"}, 32, seedsPer},
			},
			presets: presets,
			seeds:   deriveSeeds(seed, name, 2*seedsPer),
		}, nil
	case "fuzz-campaign":
		return &campaign{
			base:    deriveSeeds(seed, name, 1)[0],
			n:       fuzzSeeds,
			nworker: runtime.NumCPU(),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// deriveSeeds returns n input seeds for a workload, a pure function of
// the benchmark seed and the workload name (splitmix64 over both), kept
// to 31 bits so every generator accepts them.
func deriveSeeds(seed int64, stream string, n int) []int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	s := uint64(seed) ^ h.Sum64()
	out := make([]int64, n)
	for i := range out {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z & 0x7fffffff)
	}
	return out
}

// measurement is one benchmark run: its set-ups and its passes. The
// first pass is an untimed traced warm-up whose Results every later pass
// must reproduce.
type measurement struct {
	w      workload
	setupS []float64 // per set-up seconds, one entry per batch
	passes []*passResult
	spans  string // where the traced spans were written

	hostBefore, hostAfter time.Duration // hostCheck around the run
}

// Minimum timed passes, so medians and quartiles exist even when one
// pass outlasts the run, and run_ms_p90 has at least minItemSamples
// items under it. A traced run needs fewer untraced passes: they only
// give the runtime counters and the tracing overhead.
const (
	minUntraced      = 4
	minItemSamples   = 100
	minTracedRunEach = 2
)

func measure(w workload, seconds float64, trace bool) (*measurement, error) {
	// As many Go processors as the workload has workers: a one-worker grid
	// then keeps to one core, its garbage collection included, and leaves
	// the other to the host instead of contending for it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.workers()))
	m := &measurement{w: w, hostBefore: hostCheck()}
	var first time.Duration
	for r := 0; r < 2; r++ { // the second, warm set-up sizes the batches
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		first = time.Since(t0)
	}
	batch := setupBatch(first)
	settle()
	m.passes = append(m.passes, w.pass(true))

	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var walls []float64
	for k := 0; ; k++ {
		traced := trace && k%2 == 1
		settle()
		n := setupPerPass
		if k == 0 {
			n = setupFirst
		}
		if err := m.sampleSetup(n, batch); err != nil {
			return nil, err
		}
		pr := w.pass(traced)
		m.passes = append(m.passes, pr)
		walls = append(walls, pr.wall.Seconds())
		untraced, tracedN := m.count(false), m.count(true)
		enough := untraced >= minUntraced && untraced*w.itemsPerPass() >= minItemSamples
		if trace {
			enough = untraced >= minTracedRunEach && tracedN >= minTracedRunEach
		}
		next := time.Duration(median(walls) * float64(time.Second))
		if enough && time.Since(start)+next > budget {
			break
		}
	}
	m.hostAfter = hostCheck()
	return m, nil
}

// setupSampleTarget is how long one set-up sample should take. A
// fuzz-campaign set-up takes microseconds, where one timing would be
// mostly clock and cache noise, so a sample times a batch of set-ups.
const setupSampleTarget = time.Millisecond

func setupBatch(first time.Duration) int {
	return int(min(1000, max(1, setupSampleTarget/max(first, 1))))
}

// sampleSetup records n samples of the mean set-up time over a batch.
// Samples are taken before every timed pass, so their median covers the
// whole run rather than its first moment.
func (m *measurement) sampleSetup(n, batch int) error {
	for r := 0; r < n; r++ {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			if err := m.w.setup(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds()/float64(batch))
	}
	return nil
}

// timed returns the timed passes (the warm-up excluded) of one kind.
func (m *measurement) timed(traced bool) []*passResult {
	var out []*passResult
	for _, p := range m.passes[1:] {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

func (m *measurement) count(traced bool) int { return len(m.timed(traced)) }

// verdict applies the correctness gate to every pass: no failed item, one
// simulated-statistics digest across passes, Results equal to the first
// pass's, and no machine quarantined by the sweep pool.
func (m *measurement) verdict() (attempted, failed int, problems []string) {
	first := m.passes[0].digest
	for i, p := range m.passes {
		attempted += p.attempted
		failed += p.failed
		for _, e := range p.errs {
			problems = append(problems, fmt.Sprintf("pass %d: %s", i, e))
		}
		if p.digest != first {
			problems = append(problems, fmt.Sprintf("pass %d: digest %016x differs from pass 0's %016x", i, p.digest, first))
		}
		for _, mm := range p.mismatches {
			problems = append(problems, fmt.Sprintf("pass %d: %s", i, mm))
		}
		if extra := p.mismatched - len(p.mismatches); extra > 0 {
			problems = append(problems, fmt.Sprintf("pass %d: %d more Results differ", i, extra))
		}
		if extra := p.failed - len(p.errs); extra > 0 {
			problems = append(problems, fmt.Sprintf("pass %d: %d more failed items", i, extra))
		}
		if p.poolDiscards != 0 {
			problems = append(problems, fmt.Sprintf("pass %d: sweep pool quarantined %d machines", i, p.poolDiscards))
		}
	}
	return attempted, failed, problems
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	sum        *summary // the sample behind value, when it has one
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "benchmark seed; every workload input is derived from it")
	seconds := flag.Float64("seconds", 35, "host seconds of timed passes")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("correctness gate failed")

func run(name string, seed int64, seconds float64, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	w, err := newWorkload(name, seed, gridSeeds, campaignSeeds, "examples/workloads")
	if err != nil {
		return err
	}
	m, err := measure(w, seconds, trace == 1)
	if err != nil {
		return err
	}
	if trace == 1 {
		m.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(m.spans, traces(m.timed(true))); err != nil {
			return err
		}
	}
	attempted, failed, problems := m.verdict()
	e2e := endToEnd(m)
	var layer []metric
	if trace == 1 {
		layer = perLayer(m)
	}
	report(os.Stdout, name, seed, trace, m, e2e, layer, problems)

	res := result{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	out := e2e
	if trace == 1 {
		out = layer
	}
	for _, mt := range out {
		if mt.name == "sim_mips" || mt.name == "fail_frac" {
			continue // printed above; not defined on, or not positive for, every workload
		}
		res.Metrics[mt.name] = jsonMetric{Value: mt.value, Unit: mt.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func traces(ps []*passResult) []*passTrace {
	out := make([]*passTrace, len(ps))
	for i, p := range ps {
		out[i] = p.trace
	}
	return out
}
