package telemetry

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Two wire formats, one record schema. JSONL is the readable default:
// one object per event, fixed key order, so streams are diffable with
// text tools and byte-identical whenever the event sequence is. The
// binary format is a fixed 72-byte little-endian record behind an
// 8-byte magic, for traces too large to keep as text. ReadEvents
// sniffs the magic and accepts either.

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

// binaryMagic opens every binary trace. The trailing newline keeps a
// `head -c8` sniff printable and unambiguous against JSONL (which
// always starts with '{').
var binaryMagic = [8]byte{'R', 'E', 'T', 'T', 'R', 'C', '1', '\n'}

const binaryRecordSize = 72 // 8 x int64 payload + int32 core + kind + cause + 2 pad

// BinarySink writes the compact binary format. The magic header is
// emitted before the first record, so an empty trace is an empty file
// in both formats.
type BinarySink struct {
	w      io.Writer
	buf    []byte
	opened bool
}

// NewBinarySink returns a sink writing the binary format to w.
func NewBinarySink(w io.Writer) *BinarySink { return &BinarySink{w: w} }

func (s *BinarySink) WriteEvents(evs []Event) error {
	s.buf = s.buf[:0]
	if !s.opened {
		s.buf = append(s.buf, binaryMagic[:]...)
		s.opened = true
	}
	for i := range evs {
		s.buf = appendEventBinary(s.buf, &evs[i])
	}
	_, err := s.w.Write(s.buf)
	return err
}

func appendEventBinary(b []byte, e *Event) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Cycle))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Tx))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Block))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.A))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.B))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.C))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.D))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.E))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Core))
	b = append(b, byte(e.Kind), byte(e.Cause), 0, 0)
	return b
}

func decodeEventBinary(rec []byte) Event {
	return Event{
		Cycle: int64(binary.LittleEndian.Uint64(rec[0:])),
		Tx:    int64(binary.LittleEndian.Uint64(rec[8:])),
		Block: int64(binary.LittleEndian.Uint64(rec[16:])),
		A:     int64(binary.LittleEndian.Uint64(rec[24:])),
		B:     int64(binary.LittleEndian.Uint64(rec[32:])),
		C:     int64(binary.LittleEndian.Uint64(rec[40:])),
		D:     int64(binary.LittleEndian.Uint64(rec[48:])),
		E:     int64(binary.LittleEndian.Uint64(rec[56:])),
		Core:  int32(binary.LittleEndian.Uint32(rec[64:])),
		Kind:  Kind(rec[68]),
		Cause: Cause(rec[69]),
	}
}

// ReadEvents decodes a complete trace in either wire format, sniffing
// the binary magic. A short trailing record or line (a run killed
// mid-write) is an error; traces flushed through Recorder.Flush are
// always record-aligned. An event no run can emit is an error too
// (checkEvent).
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == io.EOF && len(head) == 0 {
		return nil, nil // empty trace
	}
	if err == nil && bytes.Equal(head, binaryMagic[:]) {
		return readBinary(br)
	}
	return readJSONL(br)
}

func readBinary(br *bufio.Reader) ([]Event, error) {
	if _, err := br.Discard(len(binaryMagic)); err != nil {
		return nil, err
	}
	var evs []Event
	rec := make([]byte, binaryRecordSize)
	for {
		_, err := io.ReadFull(br, rec)
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: truncated binary record after %d events: %w", len(evs), err)
		}
		e := decodeEventBinary(rec)
		if err := checkEvent(&e, len(evs)); err != nil {
			return nil, err
		}
		evs = append(evs, e)
	}
}

func readJSONL(br *bufio.Reader) ([]Event, error) {
	var evs []Event
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("telemetry: bad trace line after %d events: %w", len(evs), err)
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
