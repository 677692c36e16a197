package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sinks are how records leave the observability layer: a Collector writes
// each message record the moment it closes and forgets it, so a run's
// length is not capped by available memory. The only per-run state left in
// memory is O(1): integer histogram buckets, channel counters, and the
// open-message slot table (bounded by the number of concurrently in-flight
// messages, not by run length).
//
// Sinks buffer boundedly (a fixed-size bufio window) and flush periodically
// (every FlushEvery records), so `tail -f | jq` sees a long sweep's lines
// while it runs. Errors are sticky: the first write/flush failure is
// latched, every later Write returns it, and Close reports it — export
// code cannot silently drop lines on a full disk.
//
// Sinks are not concurrency-safe (the simulation is single-threaded, and
// parallel sweep cells each own their collector and sink); CountSink is
// the exception so tests can share one across workers.

// Line is one self-describing export record: a JSON object, which the
// JSONL framing leads with a "kind" member the record does not carry.
type Line interface {
	// LineKind reports the record's "kind", a plain identifier ("run",
	// "msg", "chan", "hist", "trace", "progress", ...).
	LineKind() string
}

// Sink consumes export lines as they are produced.
type Sink interface {
	// Write appends one record. After a failure every subsequent call
	// returns the first error.
	Write(Line) error
	// Flush pushes buffered records to the underlying writer.
	Flush() error
	// Close flushes, releases the underlying writer (closing it when it
	// is an io.Closer) and returns the first error the sink saw.
	Close() error
}

// defaultFlushEvery is the record cadence of automatic flushes.
const defaultFlushEvery = 256

// sinkBufSize bounds each sink's in-memory buffering.
const sinkBufSize = 64 << 10

// JSONSink streams lines as JSON in one of two framings: one object per
// line led by its "kind" (NewJSONLSink, the grep/jq-friendly -metrics-out
// format), or a Chrome trace_event document (NewTraceSink) whose envelope
// opens on the first event and is sealed by Close, so a multi-hour run's
// timeline goes to disk incrementally instead of accumulating in the
// collector. The trace framing accepts only "trace" lines.
type JSONSink struct {
	under  io.Writer
	w      *bufio.Writer
	line   bytes.Buffer // the framed line being encoded
	enc    *json.Encoder
	trace  bool // trace_event framing
	wrote  bool // a line went out: the trace envelope is open
	every  int
	unread int // records since the last flush
	err    error
	closed bool
}

// NewJSONLSink streams one JSON object per line to w, with bounded
// buffering and the default flush cadence. If w is an io.Closer, Close
// closes it.
func NewJSONLSink(w io.Writer) *JSONSink { return newJSONSink(w, false) }

// NewTraceSink streams a Chrome trace_event document to w. If w is an
// io.Closer, Close closes it.
func NewTraceSink(w io.Writer) *JSONSink { return newJSONSink(w, true) }

func newJSONSink(w io.Writer, trace bool) *JSONSink {
	s := &JSONSink{under: w, w: bufio.NewWriterSize(w, sinkBufSize), trace: trace, every: defaultFlushEvery}
	s.enc = json.NewEncoder(&s.line)
	return s
}

// FlushEvery sets the automatic flush cadence in records (<= 0 restores
// the default) and returns the sink for chaining.
func (s *JSONSink) FlushEvery(n int) *JSONSink {
	if n <= 0 {
		n = defaultFlushEvery
	}
	s.every = n
	return s
}

// Write encodes one line in the sink's framing.
func (s *JSONSink) Write(l Line) error {
	if s.err != nil {
		return s.err
	}
	s.line.Reset()
	if s.trace {
		if _, ok := l.(traceEvent); !ok {
			s.err = fmt.Errorf("telemetry: trace sink got %q line", l.LineKind())
			return s.err
		}
		sep := ",\n"
		if !s.wrote {
			sep = "{\"traceEvents\":[\n"
		}
		s.line.WriteString(sep)
	}
	if err := s.enc.Encode(l); err != nil {
		s.err = err
		return err
	}
	b := s.line.Bytes()
	if s.trace {
		b = b[:len(b)-1] // the next separator or Close ends the event
	} else { // {"kind":"run",...}; the Write below reports what these hit
		s.w.WriteString(`{"kind":"`)
		s.w.WriteString(l.LineKind())
		s.w.WriteByte('"')
		if len(b) > len("{}\n") {
			s.w.WriteByte(',')
		}
		b = b[1:]
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return err
	}
	s.wrote = true
	s.unread++
	if s.unread >= s.every {
		return s.Flush()
	}
	return nil
}

// Flush pushes buffered lines through to the underlying writer.
func (s *JSONSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.unread = 0
	if err := s.w.Flush(); err != nil {
		s.err = err
	}
	return s.err
}

// Close seals a trace document, flushes, and closes the underlying
// writer when it is an io.Closer.
func (s *JSONSink) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.trace && s.err == nil {
		tail := "\n],\"displayTimeUnit\":\"ms\"}\n"
		if !s.wrote {
			tail = "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n"
		}
		if _, err := s.w.WriteString(tail); err != nil {
			s.err = err
		}
	}
	s.Flush()
	if c, ok := s.under.(io.Closer); ok {
		if err := c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// CountSink counts lines by kind and discards them — the null sink. It
// measures a stream (tests, ablations, dry runs) at zero serialization
// cost and, unlike JSONSink, is safe for concurrent use.
type CountSink struct {
	mu    sync.Mutex
	kinds map[string]uint64
}

// NewCountSink returns an empty counting sink.
func NewCountSink() *CountSink { return &CountSink{kinds: make(map[string]uint64)} }

// Write counts the line's kind.
func (s *CountSink) Write(l Line) error {
	s.mu.Lock()
	s.kinds[l.LineKind()]++
	s.mu.Unlock()
	return nil
}

// Flush does nothing: the sink keeps no lines.
func (s *CountSink) Flush() error { return nil }

// Close does nothing: the sink holds no writer.
func (s *CountSink) Close() error { return nil }

// Count reports how many lines of kind were written.
func (s *CountSink) Count(kind string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kinds[kind]
}
