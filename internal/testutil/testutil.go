// Package testutil holds the simulation test scaffolding shared by the
// determinism suites: snapshotting final memory, running a workload
// bundle to its observable output, asserting byte-identical builds, and
// the lockstep-vs-event cross-scheduler check. internal/wspec,
// internal/fuzz and internal/lab all assert the same guarantees — this
// package keeps them asserting the same way.
package testutil

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Snapshot copies the image's words — the final architectural state.
func Snapshot(img *mem.Image) []int64 {
	out := make([]int64, img.Size()/mem.WordSize)
	for i := range out {
		out[i] = img.Read64(int64(i) * mem.WordSize)
	}
	return out
}

// SimOut is one simulation's observable output: the Result, the final
// memory words, and (optionally) the event trace as JSONL.
type SimOut struct {
	Res   *sim.Result
	Img   []int64
	Trace []byte
}

// Exec runs the bundle's programs over its image under p and returns the
// observable output, failing t on any simulation or verifier error.
// trace captures the event trace; prep (optional) may attach observers
// to the machine before it runs.
func Exec(t testing.TB, p sim.Params, b *workloads.Bundle, trace bool, prep func(*sim.Machine)) SimOut {
	t.Helper()
	m, err := sim.New(p, b.Mem, b.Programs)
	if err != nil {
		t.Fatalf("%v/%v: %v", p.Mode, p.Sched, err)
	}
	var tb bytes.Buffer
	if trace {
		m.Record(telemetry.NewRecorder(telemetry.NewJSONLSink(&tb), 0))
	}
	if prep != nil {
		prep(m)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%v/%v: %v", p.Mode, p.Sched, err)
	}
	if b.Verify != nil {
		if err := b.Verify(b.Mem); err != nil {
			t.Fatalf("%v/%v: %v", p.Mode, p.Sched, err)
		}
	}
	return SimOut{Res: res, Img: Snapshot(b.Mem), Trace: tb.Bytes()}
}

// CrossSched builds the bundle fresh per scheduler, runs it under the
// lockstep oracle and the event scheduler, and fails t unless the two
// produce byte-identical Results, final memory and (when trace is set)
// event traces. It returns the event-scheduler output. This is the PR-2
// differential guarantee as a reusable assertion.
func CrossSched(t testing.TB, label string, p sim.Params, build func() *workloads.Bundle, trace bool, prep func(*sim.Machine)) SimOut {
	t.Helper()
	var ref SimOut
	for i, sched := range []sim.SchedKind{sim.SchedLockstep, sim.SchedEvent} {
		ps := p
		ps.Sched = sched
		out := Exec(t, ps, build(), trace, prep)
		if i == 0 {
			ref = out
			continue
		}
		if !reflect.DeepEqual(ref.Res, out.Res) {
			t.Fatalf("%s/%v: results diverge between schedulers:\nlockstep: %+v\nevent:    %+v",
				label, p.Mode, ref.Res, out.Res)
		}
		if trace && !bytes.Equal(ref.Trace, out.Trace) {
			t.Fatalf("%s/%v: traces diverge:%s", label, p.Mode, FirstTraceDiff(ref.Trace, out.Trace))
		}
		if !reflect.DeepEqual(ref.Img, out.Img) {
			t.Fatalf("%s/%v: final memory diverges between schedulers", label, p.Mode)
		}
		return out
	}
	return ref
}

// AssertSameBuild fails t unless two independently built bundles are
// byte-identical: same memory image and same per-thread instruction
// sequences. Build determinism is what makes every seed a reproducer.
func AssertSameBuild(t testing.TB, label string, a, b *workloads.Bundle) {
	t.Helper()
	if !a.Mem.Equal(b.Mem) {
		t.Fatalf("%s: images differ at word %#x", label, a.Mem.DiffWord(b.Mem))
	}
	if len(a.Programs) != len(b.Programs) {
		t.Fatalf("%s: %d vs %d programs", label, len(a.Programs), len(b.Programs))
	}
	for i := range a.Programs {
		if !reflect.DeepEqual(a.Programs[i].Instrs, b.Programs[i].Instrs) {
			t.Fatalf("%s: thread %d programs differ", label, i)
		}
	}
}

// SeedMatrix invokes f over the (threads × seeds) cross product — the
// shared loop of the build-determinism suites.
func SeedMatrix(t testing.TB, threads []int, seeds []int64, f func(threads int, seed int64)) {
	t.Helper()
	for _, n := range threads {
		for _, s := range seeds {
			f(n, s)
		}
	}
}

// FirstTraceDiff renders the first differing trace line for a readable
// failure message.
func FirstTraceDiff(a, b []byte) string {
	la := bytes.Split(a, []byte{'\n'})
	lb := bytes.Split(b, []byte{'\n'})
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("\nline %d:\n  lockstep: %s\n  event:    %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("\none trace is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}
