package sim_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestResetEquivalence drives one machine through a heterogeneous sequence
// of configurations (different workloads, modes, core counts, schedulers,
// and cache geometries) and checks that every reused run is byte-identical
// — Results, trace output, and final memory image — to the same run on a
// freshly constructed machine. This is the Reset contract the sweep, fuzz
// and report harnesses rely on for machine pooling.
func TestResetEquivalence(t *testing.T) {
	type cfg struct {
		wl      string
		mode    sim.Mode
		cores   int
		sched   sim.SchedKind
		l1Bytes int64
	}
	grid := []cfg{
		{"counter", sim.Eager, 4, sim.SchedEvent, 0},
		{"counter", sim.RetCon, 8, sim.SchedEvent, 0},
		{"counter", sim.RetCon, 8, sim.SchedLockstep, 0},
		{"labyrinth", sim.LazyVB, 4, sim.SchedEvent, 0},
		{"counter", sim.Eager, 2, sim.SchedEvent, 16 << 10}, // cache geometry change
		{"labyrinth", sim.RetCon, 32, sim.SchedEvent, 0},    // core-count growth, 2 -> 32
		{"genome", sim.RetCon, 32, sim.SchedEvent, 0},       // busy loops run as timed stalls
		{"counter", sim.Eager, 4, sim.SchedEvent, 0},        // back to the first config
	}

	var reused *sim.Machine
	for i, g := range grid {
		w, err := workloads.Lookup(g.wl)
		if err != nil {
			t.Fatal(err)
		}
		params := sim.DefaultParams()
		params.Cores = g.cores
		params.Mode = g.mode
		params.Sched = g.sched
		if g.l1Bytes > 0 {
			params.L1Bytes = g.l1Bytes
		}

		run := func(m *sim.Machine, bundle *workloads.Bundle, trace *bytes.Buffer) *sim.Result {
			m.Record(telemetry.NewRecorder(telemetry.NewJSONLSink(trace), 0))
			res, err := m.Run()
			if err != nil {
				t.Fatalf("run %d (%s/%v/%d/%v): %v", i, g.wl, g.mode, g.cores, g.sched, err)
			}
			return res
		}

		freshBundle := w.Build(g.cores, 1)
		fresh, err := sim.New(params, freshBundle.Mem, freshBundle.Programs)
		if err != nil {
			t.Fatal(err)
		}
		var freshTrace bytes.Buffer
		freshRes := run(fresh, freshBundle, &freshTrace)

		reusedBundle := w.Build(g.cores, 1)
		if reused == nil {
			reused, err = sim.New(params, reusedBundle.Mem, reusedBundle.Programs)
		} else {
			err = reused.Reset(params, reusedBundle.Mem, reusedBundle.Programs)
		}
		if err != nil {
			t.Fatal(err)
		}
		var reusedTrace bytes.Buffer
		reusedRes := run(reused, reusedBundle, &reusedTrace)

		if !reflect.DeepEqual(freshRes, reusedRes) {
			t.Errorf("run %d (%s/%v/%d/%v): reused machine diverged:\nfresh:  %+v\nreused: %+v",
				i, g.wl, g.mode, g.cores, g.sched, freshRes, reusedRes)
		}
		if !bytes.Equal(freshTrace.Bytes(), reusedTrace.Bytes()) {
			t.Errorf("run %d (%s/%v/%d/%v): traces diverge", i, g.wl, g.mode, g.cores, g.sched)
		}
		if !freshBundle.Mem.Equal(reusedBundle.Mem) {
			t.Errorf("run %d (%s/%v/%d/%v): final memory images diverge at word %#x",
				i, g.wl, g.mode, g.cores, g.sched, freshBundle.Mem.DiffWord(reusedBundle.Mem))
		}
	}
}

// TestResetReuseAllocsFlat checks that a pooled machine reaches a flat
// allocation steady state under reuse in every mode: after a warm-up run
// grows the buffers, each further Reset+Run allocates only the Result and
// its presized PerCore slice. This is what keeps the symbolic modes as
// cheap as eager on the grid harnesses — RetCon's per-access bookkeeping
// (IVB/SSB/constraint buffers, predictor table, symbolic register file)
// must all live in machine-owned storage that Reset recycles, never in
// per-run heap growth.
func TestResetReuseAllocsFlat(t *testing.T) {
	const maxAllocsPerRun = 4 // measured: exactly 2 (Result + PerCore)
	for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
		w, err := workloads.Lookup("counter")
		if err != nil {
			t.Fatal(err)
		}
		p := sim.DefaultParams()
		p.Cores = 16
		p.Mode = mode
		bundle := w.Build(16, 1)
		m, err := sim.New(p, bundle.Mem, bundle.Programs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err) // warm-up: grow buffers to steady state
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := m.Reset(p, bundle.Mem, bundle.Programs); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.1f allocs per pooled Reset+Run", mode, allocs)
		if allocs > maxAllocsPerRun {
			t.Errorf("%v: %.1f allocs per pooled Reset+Run, want <= %d",
				mode, allocs, maxAllocsPerRun)
		}
	}
}

// TestResetClearsObservers checks that Reset drops the commit observer and
// trace writer, per the contract that a Reset machine is indistinguishable
// from a fresh sim.New.
func TestResetClearsObservers(t *testing.T) {
	w, _ := workloads.Lookup("counter")
	bundle := w.Build(2, 1)
	p := sim.DefaultParams()
	p.Cores = 2
	m, err := sim.New(p, bundle.Mem, bundle.Programs)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	m.Record(telemetry.NewRecorder(telemetry.NewJSONLSink(&trace), 0))
	hookCalls := 0
	m.OnCommit(func(*sim.Machine, *sim.Core) error { hookCalls++; return nil })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if hookCalls == 0 || trace.Len() == 0 {
		t.Fatal("test setup: observer and trace must fire on the first run")
	}

	hookCalls = 0
	trace.Reset()
	bundle2 := w.Build(2, 1)
	if err := m.Reset(p, bundle2.Mem, bundle2.Programs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if hookCalls != 0 {
		t.Error("Reset must drop the commit observer")
	}
	if trace.Len() != 0 {
		t.Error("Reset must drop the trace writer")
	}
}

// TestOutOfImageAccessFailsLoudly checks the dense-directory bounds
// contract: a simulated access outside the memory image panics with a
// diagnostic instead of silently growing state. (Workload and fuzz
// programs are validated/constructed to stay in the image, so an
// out-of-image access is always a program-construction bug.)
func TestOutOfImageAccessFailsLoudly(t *testing.T) {
	img := mem.NewImage() // only the reserved block
	b := isa.NewBuilder("oob")
	b.Li(isa.Reg(1), img.Size()+mem.BlockSize) // address beyond the image
	b.Ld(isa.Reg(2), isa.Reg(1), 0, 8)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Cores = 1
	m, err := sim.New(p, img, []*isa.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-image access must panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "outside the image") {
			t.Fatalf("panic %v, want an out-of-image diagnostic", r)
		}
	}()
	_, _ = m.Run()
}
