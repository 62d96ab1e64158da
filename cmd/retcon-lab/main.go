// Command retcon-lab runs declarative hypotheses about the simulator:
// paired treatment/control sweep grids in, statistics and a recorded
// verdict out (internal/lab).
//
// Usage:
//
//	retcon-lab validate examples/hypotheses            # or individual files
//	retcon-lab run examples/hypotheses/zipf-skew.json  # FINDINGS.md to stdout
//	retcon-lab run -record examples/hypotheses/zipf-skew.json
//	retcon-lab run -check  examples/hypotheses         # diff against recorded
//	retcon-lab vars                                    # metric fields
//
// run executes the hypothesis (both arms, paired seeds, baselines when
// the metric needs them, and a lockstep-scheduler differential oracle)
// and renders the deterministic FINDINGS.md. -record writes it to the
// canonical location (<specdir>/<name>/FINDINGS.md); -check re-runs the
// hypothesis and fails unless the recorded document matches byte for
// byte — the CI gate that keeps recorded verdicts honest.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	retcon "repro"
	"repro/internal/lab"
	"repro/internal/progress"
	"repro/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "validate":
		cmdValidate(args)
	case "run":
		cmdRun(args)
	case "vars":
		fmt.Println("metric fields:", strings.Join(lab.MetricVars(), ", "))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "retcon-lab: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  retcon-lab validate <file-or-dir>...
  retcon-lab run [-workers N] [-out PATH|-] [-record] [-check]
                 [-journal FILE [-resume]] [-run-deadline D]
                 [-progress D] [-metrics PATH|-]
                 <file-or-dir>...
  retcon-lab vars`)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "retcon-lab:", err)
	os.Exit(1)
}

// expand turns file-or-directory arguments into the hypothesis spec
// files they name, sorted within each directory.
func expand(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no hypothesis files given")
	}
	var files []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, a)
			continue
		}
		glob, err := filepath.Glob(filepath.Join(a, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(glob)
		if len(glob) == 0 {
			return nil, fmt.Errorf("%s: no hypothesis spec files", a)
		}
		files = append(files, glob...)
	}
	return files, nil
}

func cmdValidate(args []string) {
	files, err := expand(args)
	if err != nil {
		fail(err)
	}
	base := retcon.DefaultConfig()
	for _, path := range files {
		h, err := lab.LoadFile(path)
		if err != nil {
			fail(err)
		}
		if _, err := h.Validate(base); err != nil {
			fail(fmt.Errorf("%s: %w", path, err))
		}
		fmt.Printf("ok   %-40s %s\n", path, h.Claim)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("retcon-lab run", flag.ExitOnError)
	outPath := fs.String("out", "", "write FINDINGS.md here ('-' = stdout); single hypothesis only")
	record := fs.Bool("record", false, "write FINDINGS.md to <specdir>/<name>/FINDINGS.md")
	check := fs.Bool("check", false, "fail unless the recorded FINDINGS.md matches byte for byte")
	engFlags := progress.Register(fs, "retcon-lab")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	files, err := expand(fs.Args())
	if err != nil {
		fail(err)
	}
	if *outPath != "" && len(files) != 1 {
		fail(fmt.Errorf("-out takes exactly one hypothesis (got %d)", len(files)))
	}

	var opt lab.Options
	if opt.Engine, err = engFlags.Engine(); err != nil {
		fail(err)
	}
	var metricsErr error
	if sink := engFlags.Metrics(); sink != nil {
		opt.Observe = func(o sweep.Outcome) {
			if err := sink.Emit(o); err != nil && metricsErr == nil {
				metricsErr = err
			}
		}
	}

	for _, path := range files {
		h, err := lab.LoadFile(path)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		rep, err := lab.Run(h, opt)
		if err != nil {
			if engFlags.Stopped() {
				fmt.Fprintln(os.Stderr, "retcon-lab:", err)
				engFlags.Interrupted()
			}
			fail(fmt.Errorf("%s: %w", path, err))
		}
		doc := lab.Render(rep)
		elapsed := time.Since(start).Round(time.Millisecond)

		switch {
		case *check:
			rec := lab.RecordedPath(path, h.Name)
			want, err := os.ReadFile(rec)
			if err != nil {
				fail(fmt.Errorf("%s: no recorded findings (run `retcon-lab run -record %s` first): %w", path, path, err))
			}
			if !bytes.Equal(doc, want) {
				fail(fmt.Errorf("%s: findings diverge from the recorded %s%s", path, rec, firstLineDiff(want, doc)))
			}
			fmt.Printf("ok   %-40s %-12s (%s, matches %s)\n", path, rep.Verdict, elapsed, rec)
		case *record:
			rec := lab.RecordedPath(path, h.Name)
			if err := os.MkdirAll(filepath.Dir(rec), 0o755); err != nil {
				fail(err)
			}
			if err := os.WriteFile(rec, doc, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("rec  %-40s %-12s (%s) -> %s\n", path, rep.Verdict, elapsed, rec)
		case *outPath != "" && *outPath != "-":
			if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("out  %-40s %-12s (%s) -> %s\n", path, rep.Verdict, elapsed, *outPath)
		default:
			os.Stdout.Write(doc)
		}
	}
	if err := engFlags.Close(); err != nil && metricsErr == nil {
		metricsErr = err
	}
	if metricsErr != nil {
		fail(metricsErr)
	}
}

// firstLineDiff renders the first differing line of two documents.
func firstLineDiff(want, got []byte) string {
	w := bytes.Split(want, []byte{'\n'})
	g := bytes.Split(got, []byte{'\n'})
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("\nline %d:\n  recorded: %s\n  current:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("\none document is a prefix of the other (%d vs %d lines)", len(w), len(g))
}
