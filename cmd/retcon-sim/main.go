// Command retcon-sim runs one workload on the simulated machine and prints
// its statistics: cycles, speedup over sequential, execution-time
// breakdown, abort/commit counts and (in RETCON mode) Table 3 structure
// utilization.
//
// Usage:
//
//	retcon-sim -workload genome-sz -mode retcon -cores 32
//	retcon-sim -workload counter -cores 2 -trace-out -   # per-event JSONL on stdout
//	retcon-sim -workload counter -trace-out run.jsonl -metrics
//	retcon-sim -workload counter -cores 2 -trace-out - | retcon-trace summary -
//	retcon-sim -list
//
// -trace-out records the structured event trace (analyze it with
// retcon-trace); the stream is byte-identical across schedulers for a
// fixed (workload, seed, cores). With -trace-out - the trace owns
// stdout and the printed stats go to stderr, so the stream pipes
// cleanly. -metrics appends the run's metric registry snapshot —
// abort-cause counters and latency histograms — to the printed stats.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	retcon "repro"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func main() {
	name := flag.String("workload", "counter", "workload name (see -list)")
	modeStr := flag.String("mode", "eager", "conflict handling: eager, lazy-vb or retcon")
	schedStr := flag.String("sched", "event", "cycle-loop scheduler: event (time-skip) or lockstep (reference oracle)")
	cores := flag.Int("cores", 32, "number of simulated cores")
	seed := flag.Int64("seed", 1, "workload input seed")
	list := flag.Bool("list", false, "list available workloads and exit")
	speedup := flag.Bool("speedup", true, "also run the 1-core sequential baseline")
	traceOut := flag.String("trace-out", "", "record the structured event trace to this file as JSONL ('-' = stdout)")
	metrics := flag.Bool("metrics", false, "print the metric registry snapshot (abort causes, latency histograms, scheduler occupancy)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the simulation to this file")
	flag.Parse()

	if *list {
		// Resolve the -workload argument first so a spec: reference shows
		// up in its own listing.
		if *name != "" {
			_, _ = retcon.LookupWorkload(*name)
		}
		for _, w := range retcon.ListWorkloads() {
			fmt.Printf("%-18s %s\n", w.Name, w.Description)
		}
		return
	}

	mode, err := sweep.ParseMode(*modeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "retcon-sim:", err)
		os.Exit(2)
	}

	sched, err := retcon.ParseSched(*schedStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "retcon-sim:", err)
		os.Exit(2)
	}

	w, err := retcon.LookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "retcon-sim:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "retcon-sim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "retcon-sim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := retcon.DefaultConfig()
	cfg.Cores = *cores
	cfg.Mode = mode
	cfg.Sched = sched
	// The printed stats go to stdout unless the trace stream owns it.
	var out io.Writer = os.Stdout
	var res *retcon.Result
	if *traceOut != "" {
		tf := os.Stdout
		if *traceOut == "-" {
			out = os.Stderr
		} else {
			tf, err = os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "retcon-sim:", err)
				os.Exit(1)
			}
		}
		rec := telemetry.NewRecorder(telemetry.NewJSONLSink(tf), 0)
		res, err = retcon.RunRecorded(w, cfg, *seed, rec)
		if err == nil {
			err = rec.Err()
		}
		if *traceOut != "-" {
			if cerr := tf.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	} else {
		res, err = retcon.RunSeeded(w, cfg, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "retcon-sim:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "retcon-sim:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "retcon-sim:", err)
			os.Exit(1)
		}
	}

	tot := res.Sim.Totals()
	fmt.Fprintf(out, "workload  %s (%s)\n", w.Name(), w.Description())
	fmt.Fprintf(out, "machine   %d cores, mode %v, sched %v\n", *cores, mode, sched)
	fmt.Fprintf(out, "cycles    %d\n", res.Cycles)
	fmt.Fprintf(out, "instrs    %d\n", tot.Instrs)
	fmt.Fprintf(out, "commits   %d   aborts %d   nacks %d   overflows %d\n",
		tot.Commits, tot.Aborts, tot.Nacks, res.Sim.Metrics.AbortCause[telemetry.CauseSpecOverflow])
	bd := res.Sim.Breakdown()
	fmt.Fprintf(out, "breakdown busy %.1f%%  barrier %.1f%%  conflict %.1f%%  other %.1f%%\n",
		100*bd[sim.CatBusy], 100*bd[sim.CatBarrier], 100*bd[sim.CatConflict], 100*bd[sim.CatOther])

	if mode == retcon.ModeRetCon || mode == retcon.ModeLazyVB {
		t3 := res.Sim.Table3()
		fmt.Fprintf(out, "retcon    blocks lost %.1f (%.0f)  tracked %.1f (%.0f)  stores %.1f (%.0f)\n",
			t3.AvgLost, t3.MaxLost, t3.AvgTracked, t3.MaxTracked, t3.AvgStores, t3.MaxStores)
		fmt.Fprintf(out, "          constraints %.1f (%.0f)  commit cycles %.1f  commit stall %.2f%%\n",
			t3.AvgConstraints, t3.MaxConstraints, t3.AvgCommitCycles, t3.CommitStallPct)
	}

	if *metrics {
		fmt.Fprintln(out, "metrics")
		if err := res.Sim.MetricsSnapshot().WriteText(out); err != nil {
			fmt.Fprintln(os.Stderr, "retcon-sim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "sched     event-loop %d cycles\n", res.Sched.EventCycles)
	}

	if *speedup {
		seqCfg := cfg
		seqCfg.Cores = 1
		seqCfg.Mode = retcon.ModeEager
		seq, err := retcon.RunSeeded(w, seqCfg, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "retcon-sim: sequential baseline:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "speedup   %.2fx over sequential (%d cycles)\n",
			float64(seq.Cycles)/float64(res.Cycles), seq.Cycles)
	}
}
