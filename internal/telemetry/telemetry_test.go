package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Cycle: 1, Core: 0, Kind: KindBegin, Tx: 1, A: 0},
		{Cycle: 5, Core: 1, Kind: KindTrack, Tx: 2, Block: 0x40},
		{Cycle: 14, Core: 1, Kind: KindNack, Block: 0x40, A: 0, B: 9, C: 1},
		{Cycle: 14, Core: 1, Kind: KindTrain, Block: 0x40, A: 1},
		{Cycle: 14, Core: 1, Kind: KindAbort, Cause: CauseConflict, A: 1, Block: 0x40, B: 3, C: 13},
		{Cycle: 20, Core: 0, Kind: KindViolate, Block: 0x48, A: -7, B: -10, C: 10},
		{Cycle: 31, Core: 0, Kind: KindRepair, A: 4, B: 1, C: 6, D: 2, E: 12},
		{Cycle: 33, Core: 0, Kind: KindCommit, Tx: 1, A: 32},
	}
}

func TestKindCauseNames(t *testing.T) {
	for k := KindNone; k < NumKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %d: round trip via %q failed (got %d, ok=%v)", k, k.String(), got, ok)
		}
	}
	for c := CauseNone; c < NumCauses; c++ {
		got, ok := CauseFromString(c.String())
		if !ok || got != c {
			t.Errorf("cause %d: round trip via %q failed (got %d, ok=%v)", c, c.String(), got, ok)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Error("KindFromString accepted an unknown name")
	}
	if _, ok := CauseFromString("bogus"); ok {
		t.Error("CauseFromString accepted an unknown name")
	}
}

func TestWireRoundTrip(t *testing.T) {
	t.Run("jsonl", func(t *testing.T) {
		evs := sampleEvents()
		var buf bytes.Buffer
		rec := NewRecorder(NewJSONLSink(&buf), 3) // smaller than len(evs): exercises mid-stream flushes
		for _, e := range evs {
			rec.Emit(e)
		}
		rec.Flush()
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, evs)
		}
	})
}

func TestReadEventsEmpty(t *testing.T) {
	evs, err := ReadEvents(strings.NewReader(""))
	if err != nil || len(evs) != 0 {
		t.Fatalf("empty trace: got %d events, err %v", len(evs), err)
	}
}

// TestReadEventsTruncatedLine: a trace whose last line was cut
// mid-object (a run killed mid-write) is an error naming the event it
// cut, never a shorter trace.
func TestReadEventsTruncatedLine(t *testing.T) {
	var buf bytes.Buffer
	evs := sampleEvents()
	if err := NewJSONLSink(&buf).WriteEvents(evs); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-10]
	evs, err := ReadEvents(bytes.NewReader(torn))
	if err == nil {
		t.Fatalf("torn trace decoded as %d events without error", len(evs))
	}
	if want := fmt.Sprintf("event %d:", len(sampleEvents())-1); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the torn event (%q)", err, want)
	}
}

// TestReadEventsRejectsOutOfRange: an event no run can emit (kind or
// cause past the taxonomy, core outside the simulator's range) is an
// error naming the event's index, never an event that panics a consumer
// indexing per-kind or per-core tables.
func TestReadEventsRejectsOutOfRange(t *testing.T) {
	good := Event{Cycle: 1, Core: 0, Kind: KindBegin, Tx: 1}
	for _, tc := range []struct {
		name string
		bad  Event
	}{
		{"kind", Event{Cycle: 2, Kind: 200}},
		{"kind=NumKinds", Event{Cycle: 2, Kind: NumKinds}},
		{"cause", Event{Cycle: 2, Kind: KindAbort, Cause: NumCauses}},
		{"core=64", Event{Cycle: 2, Core: 64, Kind: KindCommit}},
		{"core=2e9", Event{Cycle: 2, Core: 2_000_000_000, Kind: KindCommit}},
		{"core<0", Event{Cycle: 2, Core: -1, Kind: KindCommit}},
	} {
		t.Run(tc.name+"/jsonl", func(t *testing.T) {
			var buf bytes.Buffer
			if err := NewJSONLSink(&buf).WriteEvents([]Event{good, tc.bad}); err != nil {
				t.Fatal(err)
			}
			evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
			if err == nil {
				t.Fatalf("decoded %+v without error", evs)
			}
			if !strings.Contains(err.Error(), "event 1:") {
				t.Errorf("error %q does not name event 1", err)
			}
		})
	}
}

func TestRecorderPassesEveryKind(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(NewJSONLSink(&buf), 4)
	var want []Event
	for k := KindNone + 1; k < NumKinds; k++ {
		e := Event{Cycle: int64(k), Kind: k, Tx: 1}
		rec.Emit(e)
		want = append(want, e)
	}
	rec.Flush()
	got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recorder dropped or reordered events:\ngot  %v\nwant %v", got, want)
	}
}

func TestEventString(t *testing.T) {
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{Cycle: 33, Core: 0, Kind: KindCommit, Tx: 1, A: 32},
			"t=33 core=0 commit tx=1 block=0x0 a=32 b=0 c=0 d=0 e=0"},
		{Event{Cycle: 14, Core: 1, Kind: KindAbort, Cause: CauseConflict, Block: -1, A: 1, B: 3, C: 13},
			"t=14 core=1 abort cause=conflict tx=0 block=-0x1 a=1 b=3 c=13 d=0 e=0"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var rec *Recorder
	rec.Emit(Event{Kind: KindCommit})
	rec.Flush()
	if rec.Err() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

type countingSink struct{ batches, events int }

func (s *countingSink) WriteEvents(evs []Event) error {
	s.batches++
	s.events += len(evs)
	return nil
}

func TestEmitSteadyStateAllocs(t *testing.T) {
	sink := &countingSink{}
	rec := NewRecorder(sink, 64)
	e := Event{Kind: KindCommit, Tx: 1, A: 9}
	allocs := testing.AllocsPerRun(1000, func() { rec.Emit(e) })
	if allocs != 0 {
		t.Fatalf("Emit allocated %.2f allocs/op; the ring must be alloc-free", allocs)
	}
	rec.Flush()
	if sink.events < 1000 {
		t.Fatalf("sink saw %d events, want >= 1000", sink.events)
	}
	if sink.batches < 15 {
		t.Fatalf("ring of 64 should have flushed in many batches, saw %d", sink.batches)
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 1, 3, 900, -5} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Sum != 900 || h.Min != -5 || h.Max != 900 {
		t.Fatalf("hist summary wrong: %+v", h)
	}
	if h.Buckets[0] != 2 { // 0 and -5
		t.Errorf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[1] != 2 { // two 1s
		t.Errorf("bucket 1 = %d, want 2", h.Buckets[1])
	}
	if h.Buckets[2] != 1 { // 3
		t.Errorf("bucket 2 = %d, want 1", h.Buckets[2])
	}
	if h.Buckets[10] != 1 { // 900 has bit length 10
		t.Errorf("bucket 10 = %d, want 1", h.Buckets[10])
	}
	var wide Hist
	wide.Observe(1 << 40)
	if wide.Buckets[16] != 1 {
		t.Errorf("wide value must land in the top bucket: %+v", wide.Buckets)
	}
	if g := h.Mean(); g != 150 {
		t.Errorf("mean = %v, want 150", g)
	}
	var empty Hist
	if empty.Mean() != 0 {
		t.Error("empty hist mean must be 0")
	}
}

func TestSnapshotWriteText(t *testing.T) {
	var h Hist
	h.Observe(4)
	h.Observe(8)
	s := Snapshot{
		{Name: "aborts.conflict", Value: 3},
		{Name: "nack_wait", Value: h.Count, Hist: &h},
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"aborts.conflict", "3", "nack_wait", "count=2", "mean=6.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, out)
		}
	}
}
