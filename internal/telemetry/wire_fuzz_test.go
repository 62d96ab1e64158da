package telemetry

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzReadEvents: ReadEvents never panics on any input, and every trace
// it accepts round-trips exactly through the sink. The seeds are the
// golden trace's first event of each kind, that trace cut mid-line, a
// blank line between two events, and garbage. The whole golden trace is
// no seed: each step of the fuzzer's input minimisation would decode all
// of it, and minimising one new input would outlast a CI fuzz run.
func FuzzReadEvents(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/trace_counter_retcon_c4_s1.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	all, err := ReadEvents(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	var evs []Event
	var seen [NumKinds]bool
	for _, e := range all {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			evs = append(evs, e)
		}
	}
	var jsonl bytes.Buffer
	if err := NewJSONLSink(&jsonl).WriteEvents(evs); err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(jsonl.Bytes(), []byte("\n"))
	f.Add(jsonl.Bytes())
	f.Add(jsonl.Bytes()[:jsonl.Len()-len(lines[len(lines)-2])/2]) // torn tail
	f.Add(bytes.Join([][]byte{lines[0], []byte("  \n"), lines[1]}, nil))
	f.Add([]byte("RETTRC1\n\xff\x00garbage"))
	f.Add([]byte("{\"t\":1,\"core\":-3,\"kind\":\"commit\"}\n{]"))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := NewJSONLSink(&buf).WriteEvents(evs); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading %d accepted events: %v", len(evs), err)
		}
		if len(got) != len(evs) || (len(evs) > 0 && !reflect.DeepEqual(got, evs)) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, evs)
		}
	})
}
