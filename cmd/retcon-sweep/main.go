// Command retcon-sweep runs declarative experiment sweeps over the
// RETCON simulator: spec files (JSON), named presets, or quick flag-built
// grids, executed concurrently and streamed as JSONL / CSV / text tables.
//
// Usage:
//
//	retcon-sweep -preset quick                         # a fast smoke grid
//	retcon-sweep -preset paper -jsonl paper.jsonl      # the full Figure 9 grid
//	retcon-sweep -spec examples/sweeps/modes.json -csv out.csv
//	retcon-sweep -workloads genome,python_opt -modes all -cores 4,8 -seeds 1,2
//	retcon-sweep -spec big.json -journal runs.jsonl    # crash-safe journal
//	retcon-sweep -spec big.json -journal runs.jsonl -resume
//	retcon-sweep -preset quick -metrics metrics.jsonl  # per-run metric snapshots
//	retcon-sweep -spec big.json -progress 2s           # stderr progress + ETA
//	retcon-sweep -list                                 # workloads and presets
//
// Quick flags refine the selected preset (or an empty spec): a flag that
// is set replaces the corresponding axis. -baseline adds the 1-core eager
// run per (workload, seed) and reports speedups. Identical configurations
// across the whole sweep are simulated once.
//
// Resilience: -run-deadline abandons hung runs, -retries re-attempts
// possibly-transient failures deterministically, and -journal records
// every completed run to a crash-safe JSONL file so an interrupted sweep
// (^C checkpoints and exits 130) continues with -resume — the resumed
// output is byte-identical to an uninterrupted sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	retcon "repro"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/sweep"
)

func main() {
	specPath := flag.String("spec", "", "JSON spec file (object or array of specs)")
	preset := flag.String("preset", "", "named preset: "+strings.Join(sweep.PresetNames(), ", "))
	workloadsFlag := flag.String("workloads", "", "comma-separated workload names (also: all, paper, figure1)")
	modesFlag := flag.String("modes", "", "comma-separated modes: eager, lazy-vb, retcon, all")
	coresFlag := flag.String("cores", "", "comma-separated core counts (default: base machine's 32)")
	seedsFlag := flag.String("seeds", "", "comma-separated workload input seeds (default: 1)")
	baseline := flag.Bool("baseline", false, "add 1-core eager baselines and report speedups")
	jsonlPath := flag.String("jsonl", "", "write records as JSON lines to this file ('-' = stdout)")
	csvPath := flag.String("csv", "", "write records as CSV to this file ('-' = stdout)")
	table := flag.Bool("table", true, "print the text table to stdout")
	list := flag.Bool("list", false, "list workloads and presets, then exit")
	listWorkloads := flag.Bool("list-workloads", false, "list registry names and descriptions (including spec-registered entries), then exit")
	engFlags := progress.Register(flag.CommandLine, "retcon-sweep")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "retcon-sweep:", err)
		os.Exit(1)
	}

	if *list || *listWorkloads {
		// Expand any given specs/flags first (ignoring failures) so that
		// spec: references they mention are compiled, registered and
		// listed alongside the builtins.
		if specs, err := buildSpecs(*specPath, *preset, *workloadsFlag, *modesFlag, *coresFlag, *seedsFlag); err == nil {
			_, _ = sweep.ExpandAll(specs, retcon.DefaultConfig())
		}
		fmt.Println("workloads:")
		for _, w := range retcon.ListWorkloads() {
			fmt.Printf("  %-18s %s\n", w.Name, w.Description)
		}
		if !*listWorkloads {
			fmt.Println("presets:", strings.Join(sweep.PresetNames(), ", "))
		}
		return
	}

	specs, err := buildSpecs(*specPath, *preset, *workloadsFlag, *modesFlag, *coresFlag, *seedsFlag)
	if err != nil {
		fail(err)
	}

	runs, err := sweep.ExpandAll(specs, retcon.DefaultConfig())
	if err != nil {
		fail(err)
	}
	if len(runs) == 0 {
		fail(fmt.Errorf("spec expands to zero runs"))
	}

	eng, err := engFlags.Engine()
	if err != nil {
		fail(err)
	}
	start := time.Now()

	// Baselines go first in the SAME ExecuteStream call as the grid: the
	// engine deduplicates across the combined slice (a 1-core eager run
	// appearing in both is simulated once), ordered delivery guarantees
	// every baseline outcome arrives before the first grid record needs
	// it, and the pool keeps simulating grid runs meanwhile.
	var baselines []sweep.Run
	if *baseline {
		baselines = sweep.Baselines(runs)
	}
	combined := append(append([]sweep.Run(nil), baselines...), runs...)
	baseIx := sweep.NewBaselineIndex(nil)

	var jsonlSink *report.JSONLSink
	var jsonlClose func() error
	if *jsonlPath != "" {
		w, closeFn, err := progress.OpenOut(*jsonlPath)
		if err != nil {
			fail(err)
		}
		jsonlSink, jsonlClose = report.NewJSONLSink(w), closeFn
	}
	var csvSink *report.CSVSink
	var csvClose func() error
	if *csvPath != "" {
		w, closeFn, err := progress.OpenOut(*csvPath)
		if err != nil {
			fail(err)
		}
		csvSink, csvClose = report.NewCSVSink(w), closeFn
	}
	metricsSink := engFlags.Metrics()

	// Stream the sweep: records reach the sinks in deterministic run
	// order as each run's ordered prefix completes, so a long sweep has
	// partial JSONL/CSV on disk even if interrupted.
	var recs []sweep.Record
	var runErr, sinkErr error
	interrupted := false
	pos := 0
	eng.ExecuteStream(combined, func(o sweep.Outcome) {
		i := pos
		pos++
		if sweep.Classify(o.Err) == sweep.FailInterrupted {
			// A checkpointed run never executed: stop writing records so
			// the partial output files stay a clean prefix of what the
			// resumed sweep will produce.
			interrupted = true
		}
		if o.Err != nil && runErr == nil && !interrupted {
			runErr = o.Err
		}
		if i < len(baselines) {
			baseIx.Add(o)
			return
		}
		if interrupted {
			return
		}
		rec := o.Record()
		baseIx.Attach(&rec, o.Run)
		recs = append(recs, rec)
		if sinkErr != nil {
			return
		}
		if jsonlSink != nil {
			if err := jsonlSink.Emit(rec); err != nil {
				sinkErr = err
				return
			}
		}
		if csvSink != nil {
			if err := csvSink.Emit(rec); err != nil {
				sinkErr = err
				return
			}
		}
		if metricsSink != nil {
			sinkErr = metricsSink.Emit(o)
		}
	})
	elapsed := time.Since(start)

	if csvSink != nil && sinkErr == nil {
		sinkErr = csvSink.Close()
	}
	if csvClose != nil {
		if err := csvClose(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if jsonlClose != nil {
		if err := jsonlClose(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if err := engFlags.Close(); err != nil && sinkErr == nil {
		sinkErr = err
	}
	puts, discards := sweep.PoolStats()
	fmt.Fprintf(os.Stderr, "retcon-sweep: machine pool: %d releases, %d quarantined\n", puts, discards)
	if sinkErr != nil {
		fail(sinkErr)
	}
	if interrupted {
		engFlags.Interrupted()
	}

	if *table {
		title := fmt.Sprintf("sweep: %d runs + %d baselines (%d unique simulations) in %s",
			len(runs), len(baselines), sweep.UniqueCount(combined),
			elapsed.Round(time.Millisecond))
		report.WriteRecords(os.Stdout, title, recs)
	}
	if runErr != nil {
		fail(runErr)
	}
}

// buildSpecs merges the spec sources: -spec file specs, plus a quick spec
// assembled from -preset refined by the axis flags (if any of them are set).
func buildSpecs(specPath, preset, workloads, modes, cores, seeds string) ([]sweep.Spec, error) {
	var specs []sweep.Spec
	if specPath != "" {
		fileSpecs, err := sweep.LoadSpecFile(specPath)
		if err != nil {
			return nil, err
		}
		specs = append(specs, fileSpecs...)
	}

	quickUsed := preset != "" || workloads != "" || modes != "" || cores != "" || seeds != ""
	if quickUsed {
		quick := sweep.Spec{Name: "cli"}
		if preset != "" {
			p, err := sweep.Preset(preset)
			if err != nil {
				return nil, err
			}
			quick = p
		}
		if workloads != "" {
			quick.Workloads = splitList(workloads)
		}
		if modes != "" {
			quick.Modes = splitList(modes)
		}
		if cores != "" {
			v, err := parseInts(cores)
			if err != nil {
				return nil, fmt.Errorf("-cores: %w", err)
			}
			quick.Cores = v
		}
		if seeds != "" {
			v, err := parseInt64s(seeds)
			if err != nil {
				return nil, fmt.Errorf("-seeds: %w", err)
			}
			quick.Seeds = v
		}
		specs = append(specs, quick)
	}

	if len(specs) == 0 {
		return nil, fmt.Errorf("nothing to run: give -spec, -preset or axis flags (see -h)")
	}
	return specs, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, p := range splitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
