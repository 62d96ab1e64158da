package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

const mb = 1 << 20

// endToEnd computes the user-facing metrics from the untraced timed
// passes (all passes for fail_frac).
func endToEnd(m *measurement) []metric {
	passes := m.timed(false)
	var walls, heaps, items []float64
	var instrs, wallS, peak float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		heaps = append(heaps, float64(p.heapPeak)/mb)
		peak = max(peak, float64(p.heapPeak)/mb)
		items = append(items, p.itemMS...)
		instrs += float64(p.instrs)
		wallS += p.wall.Seconds()
	}
	attempted, failed, _ := m.verdict()
	setup, pass, item, heap := summarize(m.setupS), summarize(walls), summarize(items), summarize(heaps)
	out := []metric{
		{name: "setup_s", unit: "s", value: setup.P50, sum: &setup},
		{name: "pass_s", unit: "s", value: pass.P50, sum: &pass},
		{name: "run_ms_p50", unit: "ms", value: item.P50, sum: &item},
		{name: "run_ms_p90", unit: "ms", value: quantileOf(items, 0.90), sum: &item},
		// The live heap is sampled only as each GC cycle ends, so one pass
		// can miss its true peak; the largest over all passes converges on it.
		{name: "peak_heap_mb", unit: "MB", value: peak, sum: &heap},
	}
	if instrs > 0 {
		out = append(out, metric{name: "sim_mips", unit: "MIPS", value: instrs / wallS / 1e6})
	}
	return append(out, metric{name: "fail_frac", unit: "frac", value: ratio(float64(failed), float64(attempted))})
}

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced run. Times come
// from the timed traced passes' spans; counts are per pass and come from
// the warm-up pass's Results, which every other pass reproduces; the
// runtime.* metrics come from the untraced passes, so span bookkeeping
// does not inflate them.
func perLayer(m *measurement) []metric {
	tracedPasses, plain := m.timed(true), m.timed(false)
	lt := aggregateSpans(traces(tracedPasses))
	var capacityNS float64 // worker time available to items
	var tracedWalls, plainWalls []float64
	var acquired, reused float64
	for _, p := range tracedPasses {
		capacityNS += float64(p.wall.Nanoseconds()) * float64(m.w.workers())
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		for _, r := range p.reused {
			acquired++
			if r {
				reused++
			}
		}
	}
	var rt struct{ alloc, gc, cpu, items float64 }
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
		rt.alloc += p.runtime.allocBytes
		rt.gc += p.runtime.gcCPU
		rt.cpu += p.runtime.totalCPU
		rt.items += float64(p.attempted)
	}
	share := func(span string) float64 { return ratio(float64(lt.totalNS[span]), capacityNS) }
	p50 := func(span string) float64 { return median(lt.selfMS[span]) }

	// Simulated work per pass, from the reference Results and the warm-up
	// pass's scheduler occupancy.
	var c struct {
		cycles, instrs, nacks, commits, aborts           float64
		event, dense, handoffs                           float64
		nackWaitSum, nackWaitN, wasteSum, wasteN         float64
		repairs, repairCycles, tracked, deltaSum, deltaN float64
		cause                                            [telemetry.NumCauses]float64
	}
	ref := m.passes[0]
	for i, res := range ref.results {
		if res == nil {
			continue
		}
		t := res.Totals()
		c.cycles += float64(res.Cycles)
		c.instrs += float64(t.Instrs)
		c.nacks += float64(t.Nacks)
		c.commits += float64(t.Commits)
		c.aborts += float64(t.Aborts)
		mt := &res.Metrics
		c.nackWaitSum += float64(mt.NackWait.Sum)
		c.nackWaitN += float64(mt.NackWait.Count)
		c.wasteSum += float64(mt.AbortWaste.Sum)
		c.wasteN += float64(mt.AbortWaste.Count)
		c.repairs += float64(mt.RepairLat.Count)
		c.repairCycles += float64(mt.RepairLat.Sum)
		c.deltaSum += float64(mt.RepairDelta.Sum)
		c.deltaN += float64(mt.RepairDelta.Count)
		c.tracked += float64(res.Retcon.SumTracked)
		for k, v := range mt.AbortCause {
			c.cause[k] += float64(v)
		}
		if i < len(ref.sched) {
			s := ref.sched[i]
			c.event += float64(s.EventCycles)
			c.dense += float64(s.DenseCycles)
			c.handoffs += float64(s.Handoffs)
		}
	}
	var divergences float64
	for _, p := range m.passes {
		divergences += float64(p.divergences)
	}
	runNS := float64(lt.totalNS[spanRun])
	n := float64(len(tracedPasses))

	return []metric{
		{name: "sweep.overhead_share", unit: "frac", value: 1 - ratio(float64(itemNS(traces(tracedPasses))), capacityNS)},
		{name: "sweep.pool_reuse_frac", unit: "frac", value: ratio(reused, acquired)},
		{name: "workloads.build_ms_p50", unit: "ms", value: p50(spanBuild)},
		{name: "workloads.build_share", unit: "frac", value: share(spanBuild)},
		{name: "wspec.compile_ms", unit: "ms", value: wspecCompileMS(m)},
		{name: "sim.acquire_ms_p50", unit: "ms", value: p50(spanAcquire)},
		{name: "sim.acquire_share", unit: "frac", value: share(spanAcquire)},
		{name: "sim.run_share", unit: "frac", value: share(spanRun)},
		{name: "sim.verify_share", unit: "frac", value: share(spanVerify)},
		{name: "sim.run_ns_per_cycle", unit: "ns/cycle", value: ratio(runNS, c.cycles*n)},
		{name: "sim.run_ns_per_instr", unit: "ns/instr", value: ratio(runNS, c.instrs*n)},
		{name: "sim.cycles", unit: "count", value: c.cycles},
		{name: "sim.instrs", unit: "count", value: c.instrs},
		{name: "sim.dense_cycle_frac", unit: "frac", value: ratio(c.dense, c.dense+c.event)},
		{name: "sim.handoffs", unit: "count", value: c.handoffs},
		{name: "coherence.nacks", unit: "count", value: c.nacks},
		{name: "coherence.nacks_per_kinstr", unit: "1/kinstr", value: ratio(1000*c.nacks, c.instrs)},
		{name: "htm.nack_wait_cycles_mean", unit: "cycles", value: ratio(c.nackWaitSum, c.nackWaitN)},
		{name: "htm.commits", unit: "count", value: c.commits},
		{name: "htm.aborts.conflict", unit: "count", value: c.cause[telemetry.CauseConflict]},
		{name: "htm.aborts.spec-overflow", unit: "count", value: c.cause[telemetry.CauseSpecOverflow]},
		{name: "htm.useful_frac", unit: "frac", value: ratio(c.commits, c.commits+c.aborts)},
		{name: "htm.abort_wasted_cycles_mean", unit: "cycles", value: ratio(c.wasteSum, c.wasteN)},
		{name: "core.repairs", unit: "count", value: c.repairs},
		{name: "core.repair_cycles", unit: "cycles", value: c.repairCycles},
		{name: "core.tracked_blocks", unit: "count", value: c.tracked},
		{name: "core.repair_vs_replay_delta_mean", unit: "cycles", value: ratio(c.deltaSum, c.deltaN)},
		{name: "core.aborts.violation", unit: "count", value: c.cause[telemetry.CauseConstraintViolation]},
		{name: "core.aborts.unfoldable", unit: "count", value: c.cause[telemetry.CauseUnfoldableConstraint]},
		{name: "core.aborts.struct-overflow", unit: "count", value: c.cause[telemetry.CauseStructOverflow]},
		{name: "fuzz.generate_ms_p50", unit: "ms", value: p50(spanGenerate)},
		{name: "fuzz.generate_share", unit: "frac", value: share(spanGenerate)},
		{name: "fuzz.check_ms_p50", unit: "ms", value: p50(spanCheck)},
		{name: "fuzz.check_share", unit: "frac", value: share(spanCheck)},
		{name: "fuzz.divergences", unit: "count", value: divergences},
		{name: "runtime.alloc_mb_per_item", unit: "MB", value: ratio(rt.alloc/mb, rt.items)},
		{name: "runtime.gc_cpu_frac", unit: "frac", value: ratio(rt.gc, rt.cpu)},
		{name: "bench.trace_overhead_frac", unit: "frac", value: ratio(median(tracedWalls), median(plainWalls)) - 1},
	}
}

func wspecCompileMS(m *measurement) float64 {
	if g, ok := m.w.(*grid); ok {
		return median(g.compileMS)
	}
	return 0
}

// report prints the human-readable account of a run: what ran, the
// correctness verdict, and every metric with its spread.
func report(w io.Writer, name string, seed int64, trace int, m *measurement, e2e, layer []metric, problems []string) {
	fmt.Fprintf(w, "benchmark: workload=%s seed=%d trace=%d workers=%d items/pass=%d passes=%d (+1 warm-up; %d untraced, %d traced)\n",
		name, seed, trace, m.w.workers(), m.w.itemsPerPass(), len(m.passes)-1, m.count(false), m.count(true))
	fmt.Fprintf(w, "seeds: %s\n", m.w.describeSeeds())
	fmt.Fprintf(w, "digest: %016x over %d passes\n", m.passes[0].digest, len(m.passes))
	fmt.Fprint(w, "pass walls (s):")
	for _, p := range m.passes {
		tag := ""
		if p.traced {
			tag = "t"
		}
		fmt.Fprintf(w, " %.3f%s", p.wall.Seconds(), tag)
	}
	fmt.Fprintln(w)
	if ins := m.passes[0].instrs; ins > 0 {
		fmt.Fprintf(w, "simulated work: %d instructions per pass\n", ins)
	}
	if g, ok := m.w.(*grid); ok {
		fmt.Fprint(w, "run latency by grid point (median ms, untraced):")
		for _, pt := range g.pointLatency(m.timed(false)) {
			fmt.Fprintf(w, " %s=%.4g", pt.name, pt.ms)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "host check (fixed integer loop, not a metric): %.1f ms before, %.1f ms after\n", ms(m.hostBefore), ms(m.hostAfter))
	if len(problems) == 0 {
		fmt.Fprintln(w, "correctness: ok (no failed item; digests identical; Results equal across traced and untraced passes)")
	} else {
		fmt.Fprintf(w, "correctness: FAILED\n  %s\n", strings.Join(problems, "\n  "))
	}
	fmt.Fprintf(w, "%-22s %-5s %12s %12s %12s %12s %8s %18s %6s\n", "end-to-end (untraced)", "unit", "value", "median", "p25", "p75", "iqr/med", "tail", "n")
	for _, mt := range e2e {
		if s := mt.sum; s != nil {
			fmt.Fprintf(w, "%-22s %-5s %12.6g %12.6g %12.6g %12.6g %8.3f %12.6g (p%02d) %6d\n", mt.name, mt.unit, mt.value, s.P50, s.P25, s.P75, s.Spread, s.Tail, s.TailPct, s.N)
		} else {
			fmt.Fprintf(w, "%-22s %-5s %12.6g\n", mt.name, mt.unit, mt.value)
		}
	}
	if len(layer) > 0 {
		fmt.Fprintf(w, "%-34s %-9s %14s   (spans: %s)\n", "per-layer (traced)", "unit", "value", m.spans)
		for _, mt := range layer {
			fmt.Fprintf(w, "%-22s %-5s %12.6g\n", mt.name, mt.unit, mt.value)
		}
	}
}
