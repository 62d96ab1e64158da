// Command retcon-wload validates, describes, compiles and smoke-tests
// declarative workload-spec files (internal/wspec).
//
// Usage:
//
//	retcon-wload validate examples/workloads/zipf-hotset.json
//	retcon-wload describe examples/workloads/prodcons-queue.json
//	retcon-wload compile  examples/workloads/aux-counter.json      # ISA dump
//	retcon-wload smoke    examples/workloads                       # validate+run every spec
//
// smoke runs every spec in a directory under all three
// conflict-handling modes, verifying each declared final-state oracle —
// the CI gate for the preset library. To run one spec, with parameter
// overrides, use retcon-sim with a spec: reference:
//
//	retcon-sim -workload 'spec:examples/workloads/zipf-hotset.json?zipf_s=1.2' -mode retcon -cores 16
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	retcon "repro"
	"repro/internal/wspec"
)

func main() {
	fs := flag.NewFlagSet("retcon-wload", flag.ExitOnError)
	cores := fs.Int("cores", 8, "number of simulated cores")
	seed := fs.Int64("seed", 1, "workload input seed")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: retcon-wload <validate|describe|compile|smoke> <spec.json|dir> [flags]\n")
		fmt.Fprintf(os.Stderr, "to run one spec: retcon-sim -workload 'spec:examples/workloads/zipf-hotset.json?zipf_s=1.2' -mode retcon -cores 16\n")
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
	case "validate", "describe", "compile":
	default:
		fs.Usage()
		os.Exit(2)
	}

	spec, err := wspec.LoadFile(target)
	if err != nil {
		fail(err)
	}
	w, err := spec.Compile("", nil)
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
