package sim

import (
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Category classifies each simulated core-cycle for the Figure 4 / Figure
// 10 execution-time breakdowns.
type Category int

// Cycle categories, matching the paper's definitions: busy is "all time
// spent not stalled on synchronization" (cache misses included); barrier
// is time stalled at a barrier (load imbalance); conflict is "time spent
// either stalled by another processor or doing work in a transaction that
// is ultimately aborted"; other covers remaining synchronization stalls
// (here: pre-commit repair serialization).
const (
	CatBusy Category = iota
	CatBarrier
	CatConflict
	CatOther
	NumCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case CatBusy:
		return "busy"
	case CatBarrier:
		return "barrier"
	case CatConflict:
		return "conflict"
	case CatOther:
		return "other"
	}
	return "?"
}

// CoreStats accumulates one core's counters.
type CoreStats struct {
	Cycles  [NumCategories]int64
	Commits int64
	Aborts  int64
	Nacks   int64
	Instrs  int64
}

// RetconAgg aggregates per-committed-transaction RETCON utilization for
// Table 3. Sums and maxima are over committed transactions.
type RetconAgg struct {
	Txs int64

	SumLost, MaxLost                 int64
	SumTracked, MaxTracked           int64
	SumRegs, MaxRegs                 int64
	SumStores, MaxStores             int64
	SumConstraints, MaxConstraints   int64
	SumCommitCycles, MaxCommitCycles int64
	SumTxCycles                      int64
}

func (a *RetconAgg) record(st core.TxStats, txCycles int64) {
	a.Txs++
	a.SumLost += int64(st.BlocksLost)
	a.SumTracked += int64(st.BlocksTracked)
	a.SumRegs += int64(st.SymRegsRepaired)
	a.SumStores += int64(st.PrivateStores)
	a.SumConstraints += int64(st.ConstraintAddrs)
	a.SumCommitCycles += st.CommitCycles
	a.SumTxCycles += txCycles
	a.MaxLost = max(a.MaxLost, int64(st.BlocksLost))
	a.MaxTracked = max(a.MaxTracked, int64(st.BlocksTracked))
	a.MaxRegs = max(a.MaxRegs, int64(st.SymRegsRepaired))
	a.MaxStores = max(a.MaxStores, int64(st.PrivateStores))
	a.MaxConstraints = max(a.MaxConstraints, int64(st.ConstraintAddrs))
	a.MaxCommitCycles = max(a.MaxCommitCycles, st.CommitCycles)
}

// MetricsAgg is the run's metric registry: the abort-cause breakdown
// and the latency histograms the observability layer maintains beyond
// the paper's own counters. Everything in it is a value type and a
// pure function of (spec, params, seed) — never of the scheduler or
// the worker count — so Results carrying it stay comparable across
// schedulers (the lab's divergence oracle DeepEquals them).
type MetricsAgg struct {
	// AbortCause counts aborts by telemetry cause taxonomy.
	AbortCause [telemetry.NumCauses]int64
	// NackWait is the distribution of cycles between an access's first
	// NACK and its eventual success (aborted waits are discarded).
	NackWait telemetry.Hist
	// AbortWaste is the distribution of discarded work per abort: the
	// busy+other cycles reattributed to the conflict category.
	AbortWaste telemetry.Hist
	// RepairLat is the distribution of pre-commit repair latencies over
	// repairing commits.
	RepairLat telemetry.Hist
	// RepairDelta is the distribution, per repairing commit, of cycles
	// saved versus a full replay: the attempt's accumulated work minus
	// the repair latency (negative when the repair cost more than the
	// work it preserved).
	RepairDelta telemetry.Hist
}

// SchedStats counts the event scheduler's work: the simulated cycles its
// loop covered and the NACKed retries and local instructions it charged
// without a turn of their own. It lives on the Machine, not the
// Result: it is a property of the scheduler, and Results are
// scheduler-invariant by contract. Under the lockstep scheduler it is all
// zeros.
type SchedStats struct {
	// EventCycles is the simulated cycles the event loop covered: every
	// cycle of an event-scheduled run. DenseCycles and Handoffs are
	// always zero, since the event loop is the only loop. All three stay
	// only because the benchmark's sim.dense_cycle_frac and sim.handoffs
	// metrics read them; its next definition change deletes those
	// metrics, and then these fields.
	EventCycles int64
	DenseCycles int64
	Handoffs    int64
	// ParkedRetries counts the NACKed retries charged in bulk to cores
	// parked on the vetoing transaction instead of executed, in every
	// mode, recorded or not. They are in CoreStats.Instrs and Nacks like
	// every executed retry, in their wait's recorded NACK count, and in
	// LazyVB and RetCon in the predictor's conflict counts.
	ParkedRetries int64
	// RunInstrs counts the instructions charged inside runs of local
	// instructions (see runLocal) without a turn of their own, busy-loop
	// and register-only instructions alike, net of the ones a remote
	// abort refunded. They are in CoreStats.Instrs like every executed
	// instruction.
	RunInstrs int64
}

// SchedStats returns the scheduler-occupancy counters for the last Run.
func (m *Machine) SchedStats() SchedStats { return m.schedStats }

// Result summarizes one simulation run.
type Result struct {
	Cycles  int64 // total cycles until all cores halted
	Cores   int
	Mode    Mode
	PerCore []CoreStats
	Retcon  RetconAgg
	Metrics MetricsAgg
}

// MetricsSnapshot renders the run's metric registry as an ordered,
// deterministic snapshot (fixed metric order, no map iteration).
func (r *Result) MetricsSnapshot() telemetry.Snapshot {
	s := make(telemetry.Snapshot, 0, int(telemetry.NumCauses)+3)
	for c := telemetry.CauseNone + 1; c < telemetry.NumCauses; c++ {
		s = append(s, telemetry.Metric{Name: "aborts." + c.String(), Value: r.Metrics.AbortCause[c]})
	}
	s = append(s,
		telemetry.Metric{Name: "nack_wait_cycles", Value: r.Metrics.NackWait.Count, Hist: &r.Metrics.NackWait},
		telemetry.Metric{Name: "abort_wasted_cycles", Value: r.Metrics.AbortWaste.Count, Hist: &r.Metrics.AbortWaste},
		telemetry.Metric{Name: "repair_cycles", Value: r.Metrics.RepairLat.Count, Hist: &r.Metrics.RepairLat},
		telemetry.Metric{Name: "repair_vs_replay_delta", Value: r.Metrics.RepairDelta.Count, Hist: &r.Metrics.RepairDelta},
	)
	return s
}

// Totals sums the per-core counters.
func (r *Result) Totals() CoreStats {
	var t CoreStats
	for i := range r.PerCore {
		c := &r.PerCore[i]
		for k := 0; k < int(NumCategories); k++ {
			t.Cycles[k] += c.Cycles[k]
		}
		t.Commits += c.Commits
		t.Aborts += c.Aborts
		t.Nacks += c.Nacks
		t.Instrs += c.Instrs
	}
	return t
}

// Breakdown returns the fraction of attributed core-cycles in each
// category (Figure 4 / Figure 10 bars).
func (r *Result) Breakdown() [NumCategories]float64 {
	t := r.Totals()
	var total int64
	for _, v := range t.Cycles {
		total += v
	}
	var out [NumCategories]float64
	if total == 0 {
		return out
	}
	// Ranging over the fixed-size array, not a map: index order 0..N-1 is
	// deterministic (maporder has nothing to say here).
	for k := range out {
		out[k] = float64(t.Cycles[k]) / float64(total)
	}
	return out
}

// Table3Row is the paper's Table 3 for one workload: averages and maxima
// per committed transaction plus the pre-commit overhead.
type Table3Row struct {
	AvgLost, MaxLost               float64
	AvgTracked, MaxTracked         float64
	AvgRegs, MaxRegs               float64
	AvgStores, MaxStores           float64
	AvgConstraints, MaxConstraints float64
	AvgCommitCycles                float64
	CommitStallPct                 float64
}

// Table3 computes the Table 3 row from the aggregated RETCON stats.
func (r *Result) Table3() Table3Row {
	a := r.Retcon
	if a.Txs == 0 {
		return Table3Row{}
	}
	n := float64(a.Txs)
	row := Table3Row{
		AvgLost:         float64(a.SumLost) / n,
		MaxLost:         float64(a.MaxLost),
		AvgTracked:      float64(a.SumTracked) / n,
		MaxTracked:      float64(a.MaxTracked),
		AvgRegs:         float64(a.SumRegs) / n,
		MaxRegs:         float64(a.MaxRegs),
		AvgStores:       float64(a.SumStores) / n,
		MaxStores:       float64(a.MaxStores),
		AvgConstraints:  float64(a.SumConstraints) / n,
		MaxConstraints:  float64(a.MaxConstraints),
		AvgCommitCycles: float64(a.SumCommitCycles) / n,
	}
	if a.SumTxCycles > 0 {
		row.CommitStallPct = 100 * float64(a.SumCommitCycles) / float64(a.SumTxCycles)
	}
	return row
}
