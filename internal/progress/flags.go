package progress

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/report"
	"repro/internal/sweep"
)

// Flags is the one registration of the sweep-engine flags that
// retcon-sweep and retcon-lab run share, plus the CLI lifecycle around
// the engine they describe: the journal, the -metrics file, the
// progress reporter and the ^C checkpoint.
type Flags struct {
	name     string
	workers  int
	deadline time.Duration
	journal  string
	resume   bool
	metrics  string
	every    time.Duration

	j        *sweep.Journal
	sink     *report.MetricsSink
	closeOut func() error
	stop     chan struct{}
	stopProg func()
}

// Register adds the engine flags to fs; name prefixes every line the
// lifecycle writes to stderr.
func Register(fs *flag.FlagSet, name string) *Flags {
	f := &Flags{name: name}
	fs.IntVar(&f.workers, "workers", 0, "worker-pool size (default: GOMAXPROCS)")
	fs.DurationVar(&f.deadline, "run-deadline", 0, "per-run wall-clock deadline; a run exceeding it is abandoned and reported as failed (0 = off)")
	fs.StringVar(&f.journal, "journal", "", "append completed runs to this JSONL journal (crash-safe; enables -resume)")
	fs.BoolVar(&f.resume, "resume", false, "replay outcomes already recorded in -journal instead of re-running them")
	fs.StringVar(&f.metrics, "metrics", "", "write per-run metric snapshots (abort causes, latency histograms) as JSON lines to this file ('-' = stdout)")
	fs.DurationVar(&f.every, "progress", 0, "print a progress line (done/failed, ETA) to stderr every interval, e.g. 2s (0 = off; stdout is untouched)")
	return f
}

// Engine checks the parsed flags and builds the engine they describe.
// It opens the journal and the -metrics file, starts the progress
// reporter and installs the ^C checkpoint: the first interrupt closes
// the engine's Stop channel (in-flight runs drain and are journaled,
// runs not yet started are skipped) and a second exits 130 at once.
// Call it once; Close releases what it opened.
func (f *Flags) Engine() (sweep.Engine, error) {
	if f.resume && f.journal == "" {
		return sweep.Engine{}, errors.New("-resume requires -journal")
	}
	eng := sweep.Engine{Workers: f.workers, Deadline: f.deadline}
	if f.journal != "" {
		j, err := sweep.OpenJournal(f.journal, f.resume)
		if err != nil {
			return sweep.Engine{}, err
		}
		f.j, eng.Journal = j, j
	}
	if f.metrics != "" {
		w, closeFn, err := OpenOut(f.metrics)
		if err != nil {
			f.Close()
			return sweep.Engine{}, err
		}
		f.sink, f.closeOut = report.NewMetricsSink(w), closeFn
	}

	f.stop = make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "%s: interrupt — draining in-flight runs and checkpointing (^C again to kill)\n", f.name)
		close(f.stop)
		<-sigc
		os.Exit(130)
	}()
	eng.Stop = f.stop

	if f.every > 0 {
		eng.Progress = &sweep.Progress{}
		f.stopProg = Start(os.Stderr, f.name, eng.Progress, f.every)
	}
	return eng, nil
}

// Metrics is the -metrics sink, nil when the flag is unset.
func (f *Flags) Metrics() *report.MetricsSink { return f.sink }

// Stopped reports whether ^C has checkpointed the engine.
func (f *Flags) Stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// Close stops the progress reporter (which prints its last line),
// closes the -metrics file, reports the journal's replay counts and
// closes it. It returns the first error; a second call does nothing.
func (f *Flags) Close() error {
	if f.stopProg != nil {
		f.stopProg()
		f.stopProg = nil
	}
	var err error
	if f.closeOut != nil {
		err = f.closeOut()
		f.closeOut = nil
	}
	if f.j != nil {
		fmt.Fprintf(os.Stderr, "%s: journal: %d runs replayed, %d executed fresh, %d recorded\n",
			f.name, f.j.Hits(), f.j.Misses(), f.j.Len())
		if jerr := f.j.Close(); err == nil {
			err = jerr
		}
		f.j = nil
	}
	return err
}

// Interrupted closes what Engine opened, prints the resume hint and
// exits 130: the exit of a checkpointed sweep.
func (f *Flags) Interrupted() {
	f.Close()
	if f.journal != "" {
		fmt.Fprintf(os.Stderr, "%s: interrupted; completed runs are journaled — re-run with -journal %s -resume to continue\n", f.name, f.journal)
	} else {
		fmt.Fprintf(os.Stderr, "%s: interrupted; re-run with -journal FILE to make runs resumable\n", f.name)
	}
	os.Exit(130)
}

// OpenOut opens an output file flag's path for writing; "-" means
// stdout, whose close is a no-op.
func OpenOut(path string) (*os.File, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
