package telemetry

// A Sink consumes flushed event batches. The slice is only valid for
// the duration of the call; sinks that retain events must copy.
type Sink interface {
	WriteEvents([]Event) error
}

// A Recorder buffers events into a pre-sized ring and flushes them to
// its sink in batches. Emit on a steady-state recorder performs one
// in-place append — no allocation, no formatting. A nil *Recorder is
// valid and records nothing.
type Recorder struct {
	buf  []Event
	sink Sink
	err  error
}

// DefaultBufEvents is the ring capacity used when NewRecorder is given
// a non-positive size.
const DefaultBufEvents = 4096

// NewRecorder builds a recorder over sink with a ring of bufEvents
// events (DefaultBufEvents if <= 0).
func NewRecorder(sink Sink, bufEvents int) *Recorder {
	if bufEvents <= 0 {
		bufEvents = DefaultBufEvents
	}
	return &Recorder{buf: make([]Event, 0, bufEvents), sink: sink}
}

// Emit records one event, flushing the ring when full. Safe on a nil
// receiver (records nothing).
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.buf = append(r.buf, e)
	if len(r.buf) == cap(r.buf) {
		r.flush()
	}
}

// Flush drains the ring to the sink. The machine calls it once at the
// end of a run (deferred, so a panicking run still leaves a clean
// prefix on disk).
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.flush()
}

func (r *Recorder) flush() {
	if len(r.buf) == 0 {
		return
	}
	if err := r.sink.WriteEvents(r.buf); err != nil && r.err == nil {
		r.err = err
	}
	r.buf = r.buf[:0]
}

// Err returns the first sink error, if any. Recording continues past
// sink errors (events are dropped); the caller checks Err after Flush.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}
