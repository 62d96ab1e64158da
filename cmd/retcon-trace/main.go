// Command retcon-trace analyzes structured event traces recorded by
// retcon-sim -trace-out (or any telemetry.Recorder sink). Both wire
// formats — JSONL and compact binary — are accepted and sniffed
// automatically.
//
// Usage:
//
//	retcon-trace summary run.jsonl                  # kind/cause/core/block breakdowns
//	retcon-trace summary -counterfactual run.jsonl  # what each abort could have been
//	retcon-trace timeline -buckets 40 run.jsonl     # bucketed contention timeline
//	retcon-trace timeline -block 0x1a8 run.jsonl    # one block's contention history
//	retcon-trace diff a.jsonl b.bin                 # exit 1 when the traces differ
//
// diff is the scheduler-equivalence check in CLI form: two traces of
// the same (workload, seed, cores) must be event-identical no matter
// which scheduler or worker count produced them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "summary":
		err = cmdSummary(args, os.Stdout)
	case "timeline":
		err = cmdTimeline(args, os.Stdout)
	case "diff":
		var differs bool
		differs, err = cmdDiff(args, os.Stdout)
		if err == nil && differs {
			os.Exit(1)
		}
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "retcon-trace: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "retcon-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  retcon-trace summary [-counterfactual] [-top N] <trace>
  retcon-trace timeline [-buckets N] [-block ADDR] [-core N] <trace>
  retcon-trace diff <trace-a> <trace-b>`)
}

// load reads one trace file ('-' = stdin) in either wire format.
func load(path string) ([]telemetry.Event, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	evs, err := telemetry.ReadEvents(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// onePath enforces the exactly-one-trace-argument contract.
func onePath(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one trace file, got %d arguments", fs.NArg())
	}
	return fs.Arg(0), nil
}

// blockStats accumulates one block's contention profile.
type blockStats struct {
	block    int64
	nacks    int64
	blames   int64 // aborts blaming this block
	releases int64
	tracks   int64
	violates int64
}

// contention is the block's ranking score: events that mark it as a
// point of inter-core interference.
func (b *blockStats) contention() int64 {
	return b.nacks + b.blames + b.releases + b.violates
}

func cmdSummary(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("retcon-trace summary", flag.ExitOnError)
	counterfactual := fs.Bool("counterfactual", false, "classify each abort by what it could have been under different structures/prediction")
	top := fs.Int("top", 8, "show the N most contended blocks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := onePath(fs)
	if err != nil {
		return err
	}
	evs, err := load(path)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		fmt.Fprintf(w, "trace     %s: empty\n", path)
		return nil
	}

	var kinds [telemetry.NumKinds]int64
	var causes [telemetry.NumCauses]int64
	coreMax := int32(-1)
	for i := range evs {
		kinds[evs[i].Kind]++
		if evs[i].Kind == telemetry.KindAbort {
			causes[evs[i].Cause]++
		}
		if evs[i].Core > coreMax {
			coreMax = evs[i].Core
		}
	}

	fmt.Fprintf(w, "trace     %s: %d events, cycles %d..%d\n",
		path, len(evs), evs[0].Cycle, evs[len(evs)-1].Cycle)
	fmt.Fprintf(w, "kinds    ")
	for k := telemetry.KindNone + 1; k < telemetry.NumKinds; k++ {
		if kinds[k] > 0 {
			fmt.Fprintf(w, " %s %d ", k, kinds[k])
		}
	}
	fmt.Fprintln(w)
	if kinds[telemetry.KindAbort] > 0 {
		fmt.Fprintf(w, "causes   ")
		for c := telemetry.CauseNone + 1; c < telemetry.NumCauses; c++ {
			if causes[c] > 0 {
				fmt.Fprintf(w, " %s %d ", c, causes[c])
			}
		}
		fmt.Fprintln(w)
	}

	writeCoreTable(w, evs, coreMax)
	writeTopBlocks(w, evs, *top)
	if *counterfactual {
		writeCounterfactual(w, evs)
	}
	return nil
}

// writeCoreTable renders per-core event counts.
func writeCoreTable(w io.Writer, evs []telemetry.Event, coreMax int32) {
	if coreMax < 0 {
		return
	}
	type row struct{ begins, commits, aborts, nacks, repairs int64 }
	rows := make([]row, coreMax+1)
	for i := range evs {
		if evs[i].Core < 0 {
			continue // no core to attribute the event to
		}
		r := &rows[evs[i].Core]
		switch evs[i].Kind {
		case telemetry.KindBegin:
			r.begins++
		case telemetry.KindCommit:
			r.commits++
		case telemetry.KindAbort:
			r.aborts++
		case telemetry.KindNack:
			r.nacks++
		case telemetry.KindRepair:
			r.repairs++
		}
	}
	fmt.Fprintf(w, "\n%-6s %8s %8s %8s %8s %8s\n", "core", "begins", "commits", "aborts", "nacks", "repairs")
	for c, r := range rows {
		fmt.Fprintf(w, "%-6d %8d %8d %8d %8d %8d\n", c, r.begins, r.commits, r.aborts, r.nacks, r.repairs)
	}
}

// collectBlocks indexes the trace by block address.
func collectBlocks(evs []telemetry.Event) map[int64]*blockStats {
	blocks := make(map[int64]*blockStats)
	get := func(b int64) *blockStats {
		s := blocks[b]
		if s == nil {
			s = &blockStats{block: b}
			blocks[b] = s
		}
		return s
	}
	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case telemetry.KindNack:
			get(e.Block).nacks++
		case telemetry.KindAbort:
			if e.Block >= 0 {
				get(e.Block).blames++
			}
		case telemetry.KindRelease:
			get(e.Block).releases++
		case telemetry.KindTrack:
			get(e.Block).tracks++
		case telemetry.KindViolate:
			get(e.Block).violates++
		}
	}
	return blocks
}

// writeTopBlocks renders the N most contended blocks, ties broken by
// address so the listing is deterministic.
func writeTopBlocks(w io.Writer, evs []telemetry.Event, top int) {
	blocks := collectBlocks(evs)
	ranked := make([]*blockStats, 0, len(blocks))
	for _, s := range blocks {
		if s.contention() > 0 {
			ranked = append(ranked, s)
		}
	}
	if len(ranked) == 0 || top <= 0 {
		return
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].contention() != ranked[j].contention() {
			return ranked[i].contention() > ranked[j].contention()
		}
		return ranked[i].block < ranked[j].block
	})
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	fmt.Fprintf(w, "\n%-12s %8s %8s %8s %8s %8s\n", "block", "nacks", "blamed", "released", "violated", "tracked")
	for _, s := range ranked {
		fmt.Fprintf(w, "%#-12x %8d %8d %8d %8d %8d\n", s.block, s.nacks, s.blames, s.releases, s.violates, s.tracks)
	}
}

// writeCounterfactual classifies every abort by what it would have
// taken to avoid it. The classes partition the abort-cause taxonomy:
//
//   - struct-overflow / spec-overflow aborts are structure-bounded —
//     the same transaction would have committed (or reached repair) had
//     the hardware structures been larger; their wasted cycles are the
//     paper's capacity-pressure signal.
//   - unfoldable-constraint and violation aborts are inherent to the
//     repair algebra: the symbolic state could not be, or turned out
//     not to be, consistent. No structure size fixes them.
//   - conflict aborts split on the blamed block's tracking history: a
//     block the predictor tracked elsewhere in the run was repairable
//     in principle (the predictor missed this instance), while a
//     never-tracked block is a plain data conflict repair cannot touch.
func writeCounterfactual(w io.Writer, evs []telemetry.Event) {
	tracked := make(map[int64]bool)
	for i := range evs {
		if evs[i].Kind == telemetry.KindTrack {
			tracked[evs[i].Block] = true
		}
	}
	var (
		predictorMissed, trueConflict int64
		structBound, structWasted     int64
		unfoldable, violated          int64
	)
	for i := range evs {
		e := &evs[i]
		if e.Kind != telemetry.KindAbort {
			continue
		}
		switch e.Cause {
		case telemetry.CauseConflict:
			if e.Block >= 0 && tracked[e.Block] {
				predictorMissed++
			} else {
				trueConflict++
			}
		case telemetry.CauseStructOverflow, telemetry.CauseSpecOverflow:
			structBound++
			structWasted += e.C
		case telemetry.CauseUnfoldableConstraint:
			unfoldable++
		case telemetry.CauseConstraintViolation:
			violated++
		}
	}
	fmt.Fprintf(w, "\ncounterfactual abort classes\n")
	fmt.Fprintf(w, "  %-44s %6d   would repair with perfect prediction\n", "conflict on a predictor-tracked block", predictorMissed)
	fmt.Fprintf(w, "  %-44s %6d   plain data conflict; repair does not apply\n", "conflict on a never-tracked block", trueConflict)
	fmt.Fprintf(w, "  %-44s %6d   would commit with larger structures (%d cycles wasted)\n", "structure-bounded (struct/spec overflow)", structBound, structWasted)
	fmt.Fprintf(w, "  %-44s %6d   inherent: constraint outside the interval algebra\n", "unfoldable constraint", unfoldable)
	fmt.Fprintf(w, "  %-44s %6d   inherent: repair attempted, value constraint failed\n", "constraint violation", violated)
}

func cmdTimeline(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("retcon-trace timeline", flag.ExitOnError)
	buckets := fs.Int("buckets", 32, "number of time buckets")
	blockFlag := fs.Int64("block", -1, "restrict to one block address")
	coreFlag := fs.Int("core", -1, "restrict to one core")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := onePath(fs)
	if err != nil {
		return err
	}
	if *buckets <= 0 {
		return fmt.Errorf("-buckets must be positive")
	}
	evs, err := load(path)
	if err != nil {
		return err
	}
	filtered := evs[:0:0]
	for i := range evs {
		if *blockFlag >= 0 && evs[i].Block != *blockFlag {
			continue
		}
		if *coreFlag >= 0 && evs[i].Core != int32(*coreFlag) {
			continue
		}
		filtered = append(filtered, evs[i])
	}
	if len(filtered) == 0 {
		fmt.Fprintf(w, "timeline  %s: no matching events\n", path)
		return nil
	}

	lo, hi := filtered[0].Cycle, filtered[len(filtered)-1].Cycle
	span := hi - lo + 1
	n := *buckets
	if int64(n) > span {
		n = int(span)
	}
	type bucket struct{ commits, aborts, nacks, repairs int64 }
	bs := make([]bucket, n)
	for i := range filtered {
		b := int((filtered[i].Cycle - lo) * int64(n) / span)
		switch filtered[i].Kind {
		case telemetry.KindCommit:
			bs[b].commits++
		case telemetry.KindAbort:
			bs[b].aborts++
		case telemetry.KindNack:
			bs[b].nacks++
		case telemetry.KindRepair:
			bs[b].repairs++
		}
	}
	var peak int64 = 1
	for _, b := range bs {
		if v := b.nacks + b.aborts; v > peak {
			peak = v
		}
	}
	fmt.Fprintf(w, "timeline  %s: %d events, cycles %d..%d, %d buckets\n", path, len(filtered), lo, hi, n)
	fmt.Fprintf(w, "%-22s %8s %8s %8s %8s  contention\n", "cycles", "commits", "aborts", "nacks", "repairs")
	for i, b := range bs {
		bLo := lo + int64(i)*span/int64(n)
		bHi := lo + int64(i+1)*span/int64(n) - 1
		bar := (b.nacks + b.aborts) * 24 / peak
		fmt.Fprintf(w, "[%9d,%9d] %8d %8d %8d %8d  %s\n",
			bLo, bHi, b.commits, b.aborts, b.nacks, b.repairs, barString(int(bar)))
	}
	return nil
}

func barString(n int) string {
	const full = "########################"
	if n < 0 {
		n = 0
	}
	if n > len(full) {
		n = len(full)
	}
	return full[:n]
}

// cmdDiff compares two traces event for event and reports the first
// divergence. It returns differs=true (exit 1) when they are not
// identical — the CLI form of the byte-identity contract.
func cmdDiff(args []string, w io.Writer) (differs bool, err error) {
	fs := flag.NewFlagSet("retcon-trace diff", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff takes exactly two trace files")
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return false, err
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		return false, err
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			fmt.Fprintf(w, "traces diverge at event %d:\n  a: %s\n  b: %s\n",
				i, a[i], b[i])
			return true, nil
		}
	}
	if len(a) != len(b) {
		fmt.Fprintf(w, "one trace is a prefix of the other: %d vs %d events\n", len(a), len(b))
		return true, nil
	}
	fmt.Fprintf(w, "traces identical: %d events\n", len(a))
	return false, nil
}
