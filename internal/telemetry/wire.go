package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// One wire format: JSONL, one object per event with a fixed key order,
// so streams are diffable with text tools and byte-identical whenever
// the event sequence is.

// JSONLSink writes one JSON object per event with a fixed key order.
type JSONLSink struct {
	w   io.Writer
	buf []byte
}

// NewJSONLSink returns a sink writing JSONL to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

func (s *JSONLSink) WriteEvents(evs []Event) error {
	s.buf = s.buf[:0]
	for i := range evs {
		s.buf = appendEventJSON(s.buf, &evs[i])
	}
	_, err := s.w.Write(s.buf)
	return err
}

func appendEventJSON(b []byte, e *Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.Cycle, 10)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(e.Core), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","cause":"`...)
	b = append(b, e.Cause.String()...)
	b = append(b, `","tx":`...)
	b = strconv.AppendInt(b, e.Tx, 10)
	b = append(b, `,"block":`...)
	b = strconv.AppendInt(b, e.Block, 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, e.A, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, e.B, 10)
	b = append(b, `,"c":`...)
	b = strconv.AppendInt(b, e.C, 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, e.D, 10)
	b = append(b, `,"e":`...)
	b = strconv.AppendInt(b, e.E, 10)
	b = append(b, "}\n"...)
	return b
}

// jsonEvent mirrors the JSONL schema for decoding.
type jsonEvent struct {
	T     int64  `json:"t"`
	Core  int32  `json:"core"`
	Kind  string `json:"kind"`
	Cause string `json:"cause"`
	Tx    int64  `json:"tx"`
	Block int64  `json:"block"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	C     int64  `json:"c"`
	D     int64  `json:"d"`
	E     int64  `json:"e"`
}

// ReadEvents decodes a complete JSONL trace. A line cut short (a run
// killed mid-write) is an error; traces flushed through Recorder.Flush
// always end on a whole line. An event no run can emit is an error too
// (checkEvent).
func ReadEvents(r io.Reader) ([]Event, error) {
	var evs []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("telemetry: event %d: bad trace line: %w", len(evs), err)
		}
		kind, ok := KindFromString(je.Kind)
		if !ok {
			return nil, fmt.Errorf("telemetry: event %d: unknown kind %q", len(evs), je.Kind)
		}
		cause, ok := CauseFromString(je.Cause)
		if !ok {
			return nil, fmt.Errorf("telemetry: event %d: unknown abort cause %q", len(evs), je.Cause)
		}
		e := Event{
			Cycle: je.T, Core: je.Core, Kind: kind, Cause: cause,
			Tx: je.Tx, Block: je.Block, A: je.A, B: je.B, C: je.C, D: je.D, E: je.E,
		}
		if err := checkEvent(&e, len(evs)); err != nil {
			return nil, err
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}

// maxCores is the simulator's core limit (sim.Params.Validate): no run
// emits an event for a core outside [0, maxCores).
const maxCores = 64

// checkEvent rejects a decoded event that no run can emit, naming its
// index in the trace, so a consumer can index per-kind, per-cause and
// per-core tables with any event ReadEvents returns.
func checkEvent(e *Event, i int) error {
	switch {
	case e.Kind >= NumKinds:
		return fmt.Errorf("telemetry: event %d: kind %d out of range", i, e.Kind)
	case e.Cause >= NumCauses:
		return fmt.Errorf("telemetry: event %d: cause %d out of range", i, e.Cause)
	case e.Core < 0 || e.Core >= maxCores:
		return fmt.Errorf("telemetry: event %d: core %d outside [0, %d)", i, e.Core, maxCores)
	}
	return nil
}
