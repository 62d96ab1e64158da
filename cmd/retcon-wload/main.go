// Command retcon-wload validates, describes, compiles and runs
// declarative workload-spec files (internal/wspec).
//
// Usage:
//
//	retcon-wload validate examples/workloads/zipf-hotset.json
//	retcon-wload describe examples/workloads/prodcons-queue.json
//	retcon-wload compile  examples/workloads/aux-counter.json      # ISA dump
//	retcon-wload run      examples/workloads/zipf-hotset.json -mode retcon -cores 16
//	retcon-wload run      examples/workloads/zipf-hotset.json -set zipf_s=1.2
//	retcon-wload smoke    examples/workloads                       # validate+run every spec
//
// run executes the compiled workload under one mode and verifies its
// declared final-state oracle; smoke runs every spec in a directory
// under all three conflict-handling modes — the CI gate for the preset
// library.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	retcon "repro"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/wspec"
)

// setFlags collects repeated -set knob=value overrides.
type setFlags map[string]float64

func (s setFlags) String() string { return "" }

func (s setFlags) Set(kv string) error {
	eq := strings.IndexByte(kv, '=')
	if eq <= 0 {
		return fmt.Errorf("want knob=value, got %q", kv)
	}
	v, err := strconv.ParseFloat(kv[eq+1:], 64)
	if err != nil {
		return err
	}
	s[kv[:eq]] = v
	return nil
}

func main() {
	overrides := setFlags{}
	fs := flag.NewFlagSet("retcon-wload", flag.ExitOnError)
	modeStr := fs.String("mode", "retcon", "conflict handling for run: eager, lazy-vb or retcon")
	schedStr := fs.String("sched", "event", "cycle-loop scheduler: event or lockstep")
	cores := fs.Int("cores", 8, "number of simulated cores")
	seed := fs.Int64("seed", 1, "workload input seed")
	speedup := fs.Bool("speedup", false, "also run the 1-core sequential baseline")
	fs.Var(overrides, "set", "parameter override knob=value (repeatable)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: retcon-wload <validate|describe|compile|run|smoke> <spec.json|dir> [flags]\n")
		fs.PrintDefaults()
	}

	args := os.Args[1:]
	if len(args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	action, target := args[0], args[1]
	if err := fs.Parse(args[2:]); err != nil {
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "retcon-wload:", err)
		os.Exit(1)
	}

	switch action {
	case "smoke":
		if err := smoke(target, *cores, *seed); err != nil {
			fail(err)
		}
		return
	case "validate", "describe", "compile", "run":
	default:
		fs.Usage()
		os.Exit(2)
	}

	spec, err := wspec.LoadFile(target)
	if err != nil {
		fail(err)
	}
	w, err := spec.Compile("", overrides)
	if err != nil {
		fail(err)
	}

	switch action {
	case "validate":
		fmt.Printf("%s: ok (%s)\n", target, w.Name())
	case "describe":
		describe(w, *cores, *seed)
	case "compile":
		bundle := w.Build(*cores, *seed)
		for t, p := range bundle.Programs {
			fmt.Printf("thread %d (%s, %d instructions):\n", t, p.Name, p.Len())
			for i, in := range p.Instrs {
				fmt.Printf("  %4d  %s\n", i, in)
			}
		}
	case "run":
		mode, err := sweep.ParseMode(*modeStr)
		if err != nil {
			fail(err)
		}
		sched, err := retcon.ParseSched(*schedStr)
		if err != nil {
			fail(err)
		}
		cfg := retcon.DefaultConfig()
		cfg.Cores = *cores
		cfg.Mode = mode
		cfg.Sched = sched
		start := time.Now()
		res, err := retcon.RunSeeded(w, cfg, *seed)
		if err != nil {
			fail(err)
		}
		tot := res.Sim.Totals()
		bd := res.Sim.Breakdown()
		fmt.Printf("workload  %s (%s)\n", w.Name(), w.Description())
		fmt.Printf("machine   %d cores, mode %v, sched %v\n", *cores, mode, sched)
		fmt.Printf("cycles    %d   (wall %s)\n", res.Cycles, time.Since(start).Round(time.Millisecond))
		fmt.Printf("instrs    %d\n", tot.Instrs)
		fmt.Printf("commits   %d   aborts %d   nacks %d   overflows %d\n",
			tot.Commits, tot.Aborts, tot.Nacks, res.Sim.Metrics.AbortCause[telemetry.CauseSpecOverflow])
		fmt.Printf("breakdown busy %.1f%%  barrier %.1f%%  conflict %.1f%%  other %.1f%%\n",
			100*bd[sim.CatBusy], 100*bd[sim.CatBarrier], 100*bd[sim.CatConflict], 100*bd[sim.CatOther])
		fmt.Printf("verify    ok (final-state oracle passed)\n")
		if *speedup {
			seqCfg := cfg
			seqCfg.Cores = 1
			seqCfg.Mode = retcon.ModeEager
			seq, err := retcon.RunSeeded(w, seqCfg, *seed)
			if err != nil {
				fail(fmt.Errorf("sequential baseline: %w", err))
			}
			fmt.Printf("speedup   %.2fx over sequential (%d cycles)\n",
				float64(seq.Cycles)/float64(res.Cycles), seq.Cycles)
		}
	}
}

// describe prints the spec's knobs, objects and phase structure plus the
// compiled shape at the requested core count.
func describe(w *wspec.Workload, cores int, seed int64) {
	s := w.Spec()
	fmt.Printf("name        %s\n", w.Name())
	fmt.Printf("description %s\n", w.Description())
	params := w.Params()
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("params")
		for _, k := range keys {
			fmt.Printf("  %-14s %v\n", k, params[k])
		}
	}
	fmt.Println("objects")
	for _, o := range s.Objects {
		switch o.Kind {
		case wspec.KindTable:
			fmt.Printf("  %-14s table, slots %s\n", o.Name, o.Slots)
		case wspec.KindQueue:
			fmt.Printf("  %-14s queue, capacity %s\n", o.Name, o.Capacity)
		case wspec.KindCounter:
			fmt.Printf("  %-14s counter\n", o.Name)
		default:
			padded := "padded"
			if o.Padded != nil && !*o.Padded {
				padded = "packed"
			}
			fmt.Printf("  %-14s array, cells %s, %s\n", o.Name, o.Cells, padded)
		}
	}
	for gi, g := range s.Threads {
		fmt.Printf("group %d (weight %s)\n", gi, g.Weight)
		for pi, p := range g.Phases {
			if p.Barrier {
				fmt.Printf("  phase %d: barrier\n", pi)
				continue
			}
			region := "non-tx"
			if p.Tx {
				region = "tx"
			}
			ops := make([]string, 0, len(p.Ops))
			for _, op := range p.Ops {
				ops = append(ops, fmt.Sprintf("%s(%s)", op.Op, op.Object))
			}
			fmt.Printf("  phase %d: %s, iters %s, busy %s: %s\n",
				pi, region, p.Iters, p.Busy, strings.Join(ops, " "))
		}
	}
	bundle := w.Build(cores, seed)
	var instrs int
	for _, p := range bundle.Programs {
		instrs += p.Len()
	}
	fmt.Printf("compiled    %d threads, %d instructions total, %d op instances, image %d KiB\n",
		cores, instrs, bundle.Meta["instances"], bundle.Mem.Size()>>10)
}

// smoke validates and runs every *.json spec in the directory under all
// three conflict-handling modes, verifying each declared oracle.
func smoke(dir string, cores int, seed int64) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.json specs under %s", dir)
	}
	sort.Strings(paths)
	start := time.Now()
	for _, path := range paths {
		spec, err := wspec.LoadFile(path)
		if err != nil {
			return err
		}
		w, err := spec.Compile("", nil)
		if err != nil {
			return err
		}
		for _, mode := range []retcon.Mode{retcon.ModeEager, retcon.ModeLazyVB, retcon.ModeRetCon} {
			cfg := retcon.DefaultConfig()
			cfg.Cores = cores
			cfg.Mode = mode
			if _, err := retcon.RunSeeded(w, cfg, seed); err != nil {
				return fmt.Errorf("%s (%v): %w", path, mode, err)
			}
		}
		fmt.Printf("ok  %-44s %s (3 modes, %d cores)\n", path, w.Name(), cores)
	}
	fmt.Printf("smoke: %d specs passed in %s\n", len(paths), time.Since(start).Round(time.Millisecond))
	return nil
}
