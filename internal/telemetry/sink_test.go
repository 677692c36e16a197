package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
)

// countingWriter counts underlying Write calls — each one is a sink flush
// reaching the OS layer.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
	closes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func (w *countingWriter) Close() error {
	w.closes++
	return nil
}

// failingWriter accepts allow bytes, then fails every call.
type failingWriter struct {
	allow int
	seen  int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.seen+len(p) > w.allow {
		return 0, errDiskFull
	}
	w.seen += len(p)
	return len(p), nil
}

func testMsgLine(i int) msgLine {
	return msgLine{Plane: 0, Src: int32(i), Dst: int32(i + 1), Size: 4096, FCT: 1e-5, Delivered: true}
}

func TestJSONLSinkFlushCadence(t *testing.T) {
	w := &countingWriter{}
	s := NewJSONLSink(w).FlushEvery(4)
	for i := 0; i < 3; i++ {
		if err := s.Write(testMsgLine(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != 0 {
		t.Fatalf("3 records (< cadence 4) already reached the writer %d times", w.writes)
	}
	if err := s.Write(testMsgLine(3)); err != nil {
		t.Fatal(err)
	}
	if w.writes == 0 {
		t.Fatal("4th record did not trigger the periodic flush")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if w.closes != 1 {
		t.Fatalf("underlying writer closed %d times, want 1", w.closes)
	}
	lines := strings.Split(strings.TrimSpace(w.buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d JSONL lines, want 4", len(lines))
	}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", l, err)
		}
		if m["kind"] != "msg" {
			t.Fatalf("kind %v, want msg", m["kind"])
		}
	}
}

func TestJSONLSinkStickyError(t *testing.T) {
	s := NewJSONLSink(&failingWriter{allow: 0}).FlushEvery(1)
	if err := s.Write(testMsgLine(0)); !errors.Is(err, errDiskFull) {
		t.Fatalf("first write error = %v, want disk full", err)
	}
	// Every later call reports the same latched failure.
	if err := s.Write(testMsgLine(1)); !errors.Is(err, errDiskFull) {
		t.Fatalf("later write error = %v, want latched disk full", err)
	}
	if err := s.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("flush error = %v, want latched disk full", err)
	}
	if err := s.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("close error = %v, want latched disk full", err)
	}
}

func TestTraceSinkProducesValidDoc(t *testing.T) {
	w := &countingWriter{}
	s := NewTraceSink(w)
	for i := 0; i < 3; i++ {
		if err := s.Write(traceEvent{Name: fmt.Sprintf("ev%d", i), Ph: "X", Pid: 1, Tid: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
		t.Fatalf("streamed trace is not a valid trace_event doc: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("doc has %d events, unit %q", len(doc.TraceEvents), doc.DisplayTimeUnit)
	}
}

func TestTraceSinkEmptyDocAndWrongKind(t *testing.T) {
	var empty bytes.Buffer
	s := NewTraceSink(&empty)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(empty.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace doc invalid: %v", err)
	}

	s2 := NewTraceSink(&bytes.Buffer{})
	if err := s2.Write(runLine{}); err == nil {
		t.Fatal("trace sink accepted a run line")
	}
}

func TestCountSink(t *testing.T) {
	count := NewCountSink()
	for i := 0; i < 5; i++ {
		if err := count.Write(testMsgLine(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := count.Write(runLine{}); err != nil {
		t.Fatal(err)
	}
	if err := count.Close(); err != nil {
		t.Fatal(err)
	}
	if count.Count("msg") != 5 || count.Count("run") != 1 || count.Total() != 6 {
		t.Fatalf("counts msg=%d run=%d total=%d", count.Count("msg"), count.Count("run"), count.Total())
	}
}

// drive pushes synthetic message lifecycles through a collector with at
// most `window` concurrently open records.
func drive(c *Collector, msgs, window int) {
	type openMsg struct{ rec int }
	var open []openMsg
	for i := 0; i < msgs; i++ {
		rec := c.StartMsg(1, 2, 4096, 0)
		c.MsgWired(rec, 0)
		open = append(open, openMsg{rec})
		if len(open) >= window {
			c.MsgDelivered(open[0].rec, 1e-5, 2, false)
			open = open[1:]
		}
	}
	for _, o := range open {
		c.MsgDelivered(o.rec, 1e-5, 2, false)
	}
}

// TestCollectorStreamingIsO1 is the collector's memory guarantee: an
// arbitrarily long run keeps only the open-slot table in memory.
func TestCollectorStreamingIsO1(t *testing.T) {
	count := NewClosingSink()
	c := New(nil, Options{Messages: true})
	c.SetSink(count)
	const msgs, window = 10000, 4
	drive(c, msgs, window)
	if len(c.open) > window {
		t.Fatalf("open-slot table grew to %d, want <= in-flight window %d", len(c.open), window)
	}
	if got := count.Count("msg"); got != msgs {
		t.Fatalf("sink saw %d msg lines, want %d", got, msgs)
	}
	s := c.FCTSummary()
	if s.N != msgs || s.Delivered != msgs {
		t.Fatalf("stream summary %d/%d, want %d/%d", s.Delivered, s.N, msgs, msgs)
	}
	if err := c.FinishStream(); err != nil {
		t.Fatal(err)
	}
	if count.Count("run") != 1 || count.Count("hist") == 0 {
		t.Fatalf("footer lines: run=%d hist=%d", count.Count("run"), count.Count("hist"))
	}
	if count.Closes != 1 {
		t.Fatalf("%d closes", count.Closes)
	}
}

// TestStreamingMatchesBufferedSummary checks the summary against the
// exact statistics of the same lifecycles, buffered and sorted by the test
// itself: the aggregates must agree exactly, the histogram percentiles
// within the histogram's error bound.
func TestStreamingMatchesBufferedSummary(t *testing.T) {
	c := New(nil, Options{Messages: true})
	c.SetSink(NewCountSink())
	var fcts []float64
	var payload, bytesHops, sum float64
	for i := 0; i < 500; i++ {
		rec := c.StartMsg(1, 2, 1024, 0)
		fct := sim.Time(1e-6 * float64(1+i%100))
		c.MsgDelivered(rec, fct, 3, false)
		fcts = append(fcts, float64(fct))
		payload += 1024
		bytesHops += 1024 * 3
		sum += float64(fct)
	}
	sort.Float64s(fcts)
	s := c.FCTSummary()
	if s.N != len(fcts) || s.Delivered != len(fcts) || s.Bytes != payload || s.BytesHops != bytesHops {
		t.Fatalf("exact aggregates diverge: summary %+v, want N=Delivered=%d bytes %v bytes*hops %v",
			s, len(fcts), payload, bytesHops)
	}
	mean, maxFCT := sum/float64(len(fcts)), fcts[len(fcts)-1]
	if math.Abs(float64(s.Mean)-mean) > 1e-9 || math.Abs(float64(s.Max)-maxFCT) > 1e-9 {
		t.Fatalf("mean/max diverge: %v/%v vs exact %v/%v", s.Mean, s.Max, mean, maxFCT)
	}
	// interpolated is the exact quantile: linear interpolation over the
	// sorted samples.
	interpolated := func(p float64) float64 {
		idx := p * float64(len(fcts)-1)
		lo := int(idx)
		if lo+1 >= len(fcts) {
			return fcts[lo]
		}
		frac := idx - float64(lo)
		return fcts[lo]*(1-frac) + fcts[lo+1]*frac
	}
	relOK := func(a, b float64) bool {
		if b == 0 {
			return a == 0
		}
		return math.Abs(a-b)/b <= 0.02+1e-9 // 2^-6 bucket + interpolation-vs-rank slack
	}
	p50, p99 := interpolated(0.50), interpolated(0.99)
	if !relOK(float64(s.P50), p50) || !relOK(float64(s.P99), p99) {
		t.Fatalf("percentiles outside bound: exact p50=%v p99=%v, summary p50=%v p99=%v",
			p50, p99, s.P50, s.P99)
	}
}

// TestCollectorSinkErrorLatches: a failing sink mid-run surfaces from
// FinishStream instead of being dropped.
func TestCollectorSinkErrorLatches(t *testing.T) {
	c := New(nil, Options{Messages: true})
	c.SetSink(NewJSONLSink(&failingWriter{allow: 0}).FlushEvery(1))
	drive(c, 10, 2)
	if err := c.FinishStream(); !errors.Is(err, errDiskFull) {
		t.Fatalf("FinishStream = %v, want disk full", err)
	}
}

// TestStreamFooterOrdering: streamed docs carry msg lines first and end
// with hist/chan/run footers, all self-describing.
func TestStreamFooterOrdering(t *testing.T) {
	var buf bytes.Buffer
	c := New(nil, Options{Messages: true})
	c.SetSink(NewJSONLSink(&buf))
	drive(c, 50, 4)
	if err := c.FinishStream(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var kinds []string
	for _, l := range lines {
		var m struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		kinds = append(kinds, m.Kind)
	}
	if kinds[len(kinds)-1] != "run" {
		t.Fatalf("last streamed line is %q, want run", kinds[len(kinds)-1])
	}
	for i, k := range kinds[:50] {
		if k != "msg" {
			t.Fatalf("line %d is %q, want msg", i, k)
		}
	}
	if !strings.Contains(strings.Join(kinds, ","), "hist") {
		t.Fatal("no hist line in streamed footer")
	}
}
