// Package sim is the cycle-level multicore simulator: in-order 1-IPC cores
// executing ISA programs over private L1/L2 hierarchies, a directory
// protocol, the baseline HTM, and RETCON's symbolic tracking. It is
// single-goroutine and fully deterministic: identical inputs produce
// identical cycle counts.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
)

// Mode selects the conflict-handling configuration evaluated in the paper
// (Figure 9): the eager baseline, the lazy value-based ablation, and full
// RETCON symbolic repair.
type Mode int

// Modes.
const (
	Eager Mode = iota
	LazyVB
	RetCon
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case Eager:
		return "eager"
	case LazyVB:
		return "lazy-vb"
	case RetCon:
		return "RetCon"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Params configures the simulated machine. DefaultParams reproduces
// Table 1.
type Params struct {
	Cores int
	Mode  Mode

	// Sched selects the cycle-loop scheduler: the event-driven time-skip
	// scheduler (SchedEvent, the zero value and default) or the lockstep
	// reference oracle (SchedLockstep). Both produce identical Results;
	// see sched.go.
	Sched SchedKind

	// Cache hierarchy (per core, private).
	L1Bytes int64
	L2Bytes int64
	Ways    int
	L1Hit   int64
	L2Hit   int64

	// Coherence and memory.
	Hop           int64
	DRAM          int64
	DRAMOccupancy int64

	// HTM.
	SpecCapacity     int   // blocks of speculative metadata (L1 + permissions-only cache)
	NackRetry        int64 // cycles a NACKed request waits before retrying
	AbortBackoffBase int64 // base backoff after an abort, scaled by retry count

	// RETCON structures and predictor.
	Retcon           core.Config
	PromoteAfter     int
	ViolationPenalty int

	// Idealized-RETCON knobs (§5.3 "Comparison to idealized system").
	IdealUnlimited         bool // unbounded IVB/constraint/SSB structures
	IdealParallelReacquire bool // reacquire lost blocks in parallel at commit
	IdealZeroStoreLatency  bool // reperform stores into the cache for free

	// Watchdog bound on simulated cycles.
	MaxCycles int64
}

// DefaultParams returns the Table 1 machine: 32 in-order cores, 64KB 4-way
// L1, 1MB 4-way private L2 (10-cycle hit), 100-cycle DRAM, 20-cycle hops,
// 16-entry initial value buffer, 16-entry constraint buffer, 32-entry
// symbolic store buffer.
func DefaultParams() Params {
	return Params{
		Cores:            32,
		Mode:             Eager,
		L1Bytes:          64 << 10,
		L2Bytes:          1 << 20,
		Ways:             4,
		L1Hit:            1,
		L2Hit:            10,
		Hop:              20,
		DRAM:             100,
		DRAMOccupancy:    12,
		SpecCapacity:     1280, // 1024 L1 blocks + 4KB/16B permissions-only entries
		NackRetry:        10,
		AbortBackoffBase: 24,
		Retcon:           core.DefaultConfig(),
		PromoteAfter:     1,
		ViolationPenalty: 100,
		MaxCycles:        2_000_000_000,
	}
}

// Latencies bundles the coherence timing for the directory.
func (p *Params) latencies() coherence.Latencies {
	return coherence.Latencies{Hop: p.Hop, DRAM: p.DRAM, DRAMOccupancy: p.DRAMOccupancy}
}

// retconConfig returns the structure configuration for a core, applying
// the idealized-unlimited knob and the lazy-vb flag.
func (p *Params) retconConfig() core.Config {
	cfg := p.Retcon
	if p.IdealUnlimited {
		cfg.IVBEntries = 1 << 30
		cfg.ConstraintEntries = 1 << 30
		cfg.SSBEntries = 1 << 30
	}
	cfg.Lazy = p.Mode == LazyVB
	return cfg
}

// ParamError reports a Params field whose value no machine can be built
// or run with.
type ParamError struct {
	Field  string // the Params field, e.g. "L2Bytes"
	Value  int64  // its rejected value
	Reason string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("sim: %s = %d: %s", e.Field, e.Value, e.Reason)
}

// Validate checks that a machine can be built and run with p. Every
// failure is a *ParamError naming the offending field.
func (p *Params) Validate() error {
	bad := func(field string, v int64, reason string) error {
		return &ParamError{Field: field, Value: v, Reason: reason}
	}
	if p.Cores < 1 || p.Cores > 64 {
		return bad("Cores", int64(p.Cores), "must be in [1,64]")
	}
	if p.Mode < Eager || p.Mode > RetCon {
		return bad("Mode", int64(p.Mode), "not a mode")
	}
	if p.Sched < SchedEvent || p.Sched > SchedLockstep {
		return bad("Sched", int64(p.Sched), "not a scheduler")
	}
	if p.MaxCycles <= 0 {
		return bad("MaxCycles", p.MaxCycles, "must be positive")
	}
	// A geometry both levels reject is blamed on the associativity they
	// share; otherwise on the one size that does not divide into a
	// power-of-two set count.
	_, l1 := cache.Sets(p.L1Bytes, p.Ways, mem.BlockSize)
	_, l2 := cache.Sets(p.L2Bytes, p.Ways, mem.BlockSize)
	switch {
	case l1 != nil && l2 != nil:
		return bad("Ways", int64(p.Ways), l1.Error())
	case l1 != nil:
		return bad("L1Bytes", p.L1Bytes, l1.Error())
	case l2 != nil:
		return bad("L2Bytes", p.L2Bytes, l2.Error())
	}
	for _, f := range []struct {
		name string
		v    int64
	}{{"L1Hit", p.L1Hit}, {"L2Hit", p.L2Hit}, {"Hop", p.Hop}, {"DRAM", p.DRAM}, {"DRAMOccupancy", p.DRAMOccupancy}} {
		if f.v < 0 {
			return bad(f.name, f.v, "latency must not be negative")
		}
	}
	if p.SpecCapacity < 1 {
		return bad("SpecCapacity", int64(p.SpecCapacity), "must be at least 1 block")
	}
	if p.NackRetry < 1 {
		return bad("NackRetry", p.NackRetry, "must be at least 1 cycle")
	}
	if p.AbortBackoffBase < 0 {
		return bad("AbortBackoffBase", p.AbortBackoffBase, "must not be negative")
	}
	if p.PromoteAfter < 1 {
		return bad("PromoteAfter", int64(p.PromoteAfter), "must be at least 1 conflict")
	}
	return nil
}
