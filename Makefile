# Repro of RETCON (Blundell, Raghavan & Martin, ISCA 2010).
#
#   make build       compile everything
#   make vet         go vet, must stay clean
#   make lint        cmd/retcon-lint: the determinism / reset-completeness /
#                    hot-path allocation analyzers, must stay clean over ./...
#   make test        the tier-1 gate: build + full test suite
#   make test-short  quick iteration loop (skips the slow verification grids)
#   make race        full test suite under the race detector
#   make ci          what CI runs: vet + lint + full tests
#   make bench       time the cycle loop under both schedulers -> BENCH_sim.json
#   make bench-check replay BENCH_sim.json's budgets: recorded speedups
#                    must be >=1.0 and allocs within the per-mode
#                    ceilings, then re-measure the grid against the same
#                    budgets with noise headroom (the CI gate)
#   make bench-smoke compile-and-run every benchmark once (the CI gate)
#   make profile     CPU+heap profile of a conflict-heavy run -> cpu.pprof/mem.pprof
#   make paperbench  regenerate the paper's figures and tables concurrently
#   make fuzz        bounded differential-fuzz pass: corpus replay, a seed
#                    sweep through cmd/retcon-fuzz, and 20-30s per native
#                    go test -fuzz target
#   make fuzz-long   open-ended seed sweep (Ctrl-C when bored)
#   make wload-smoke validate + run every declarative workload spec under
#                    examples/workloads/ in all three modes (the CI gate
#                    for the preset library)
#   make lab-smoke   validate every hypothesis under examples/hypotheses/
#                    and re-run the smallest one against its recorded
#                    FINDINGS.md, byte for byte (the CI gate for the
#                    hypothesis lab)
#   make lab-record  re-run every hypothesis and rewrite the recorded
#                    FINDINGS.md documents (after an intentional change)
#   make chaos-smoke fault-injection proof of the resilience layer: a
#                    48-run grid with an injected mid-run panic and a
#                    hang completes with exactly the injected runs
#                    failed and their machines quarantined,
#                    byte-identical across worker counts, and a
#                    killed-and-resumed sweep reproduces
#                    the uninterrupted output byte for byte — under the
#                    race detector (the CI gate for fault isolation);
#                    then a journaled retcon-sweep and its -resume
#                    re-run must write identical JSONL
#   make trace-smoke observability gate: the recorded event stream for a
#                    fixed (workload, seed, cores) must match the
#                    committed golden trace byte for byte across both
#                    schedulers and 1/8 sweep workers, a panicked run
#                    must leave a clean partial trace, the
#                    retcon-trace analyzer must parse recorded traces,
#                    and retcon-sim -trace-out - must pipe into
#                    retcon-trace summary - (stats on stderr)
#   make loc         non-test Go lines outside benchmark/ (the tracked
#                    size of the program)

GO ?= go

.PHONY: build vet lint test test-short race ci bench bench-check bench-smoke profile paperbench fuzz fuzz-long wload-smoke lab-smoke lab-record chaos-smoke trace-smoke loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static contract enforcement (internal/analysis): maporder, nondetsource,
# resetcomplete and hotpathalloc over the whole module. Every suppression
# in the tree carries a reason; a bare annotation is itself a finding.
lint:
	$(GO) run ./cmd/retcon-lint ./...

test: build
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

race: build
	$(GO) test -race ./...

ci: vet lint test wload-smoke lab-smoke chaos-smoke trace-smoke

# Declarative-workload smoke: every spec in the preset library must
# validate, compile, run under eager/lazy-vb/RetCon and pass its declared
# final-state oracle.
wload-smoke: build
	$(GO) run ./cmd/retcon-wload smoke examples/workloads

# Hypothesis-lab smoke: every hypothesis spec must validate, and the
# smallest example (zipf-skew: 20 grid runs, tens of milliseconds) must
# reproduce its recorded FINDINGS.md byte for byte — statistics, verdict
# and all.
lab-smoke: build
	$(GO) run ./cmd/retcon-lab validate examples/hypotheses
	$(GO) run ./cmd/retcon-lab run -check examples/hypotheses/zipf-skew.json

lab-record: build
	$(GO) run ./cmd/retcon-lab run -record examples/hypotheses

# Chaos smoke: internal/chaos injects deterministic faults (worker
# panic, panic mid-run, hard hang past the deadline, corrupted result)
# into real sweep grids and proves fault isolation, quarantine and
# kill-and-resume byte-identity — with -race, because the abandon path
# is the one place the engine runs concurrent with a simulating machine. A journaled
# retcon-sweep run and its -resume re-run must then write the same JSONL,
# which drives the shared engine flags end to end.
chaos-smoke: build
	$(GO) test -race -count=1 ./internal/chaos/
	t=$$(mktemp -d) && \
	$(GO) run ./cmd/retcon-sweep -preset quick -journal $$t/runs.jsonl -table=false -jsonl $$t/a.jsonl && \
	$(GO) run ./cmd/retcon-sweep -preset quick -journal $$t/runs.jsonl -resume -table=false -jsonl $$t/b.jsonl && \
	cmp $$t/a.jsonl $$t/b.jsonl && rm -r $$t

# Observability smoke: the golden trace-determinism test (lockstep vs
# event vs sweep workers 1/8, byte-identical and equal to the committed
# testdata golden), the chaos partial-trace truncation case, the
# retcon-trace analyzer's own tests over recorded JSONL traces, and the
# stdout pipe from retcon-sim into retcon-trace (the grep fails the
# target unless the summary decoded the stream's commit events).
# Regenerate the golden after an intentional schema change with
# `go test -run TraceGolden -update-golden .`.
trace-smoke: build
	$(GO) test -count=1 -run TraceGolden .
	$(GO) test -count=1 -run PanickedRunLeavesCleanPartialTrace ./internal/chaos/
	$(GO) test -count=1 ./cmd/retcon-trace/
	$(GO) run ./cmd/retcon-sim -workload counter -cores 2 -trace-out - | \
		$(GO) run ./cmd/retcon-trace summary - | grep ' commit '

# The simulator's own perf trajectory: lockstep vs event-driven scheduler
# wall-clock on stall-heavy configurations, recorded at the repo root so
# every PR that moves the cycle loop also moves the committed record.
bench: build
	$(GO) run ./cmd/simbench -out BENCH_sim.json

# Budget replay: the committed BENCH_sim.json must record event-scheduler
# speedup >= 1.0 on every entry and per-mode allocs/kcycle within the
# ceilings (RetCon budgeted at 2x eager), and a fresh measurement of the
# same grid must stay within noise headroom of those budgets.
bench-check: build
	$(GO) run ./cmd/simbench -check BENCH_sim.json

# Benchmark smoke: every benchmark in the tree compiles and survives one
# iteration. CI runs this so benchmark code cannot rot unnoticed.
bench-smoke: build
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Hot-path inspection: profile a conflict-heavy 64-core run and the
# simulator benchmark set. Inspect with `go tool pprof cpu.pprof`.
profile: build
	$(GO) run ./cmd/retcon-sim -workload counter -cores 64 -mode eager -speedup=false \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) run ./cmd/simbench -reps 1 -workloads counter,genome,python_opt -modes RetCon \
		-cpuprofile cpu_retcon.pprof
	@echo "wrote cpu.pprof, mem.pprof and cpu_retcon.pprof"
	@echo "slice the labeled profile: go tool pprof -tagfocus sched=event cpu_retcon.pprof"

paperbench: build
	$(GO) run ./cmd/paperbench

# Differential fuzzing (internal/fuzz): every divergence between the
# schedulers, the conflict-handling modes, the per-commit replay oracle
# and the statistics invariants is a bug. The corpus under
# internal/fuzz/testdata/corpus/ holds minimized reproducers of fixed
# bugs and replays inside the normal test suite.
fuzz: build
	$(GO) test ./internal/fuzz/ -run TestCorpusReplay -count=1
	$(GO) run ./cmd/retcon-fuzz -seeds 0:3000 -short -progress 0
	$(GO) test ./internal/core/ -run xxx -fuzz FuzzBranchConstraint -fuzztime 30s
	$(GO) test ./internal/fuzz/ -run xxx -fuzz FuzzDifferential -fuzztime 30s
	$(GO) test ./internal/telemetry/ -run xxx -fuzz FuzzReadEvents -fuzztime 20s

fuzz-long: build
	$(GO) run ./cmd/retcon-fuzz -seeds 0:1000000 -corpus fuzz-found

# Program size: non-test Go lines, the benchmark module excluded.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | wc -l
