package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"oclgemm/internal/obs"
)

// spanRec is one span of the traced run. Spans of one op share TraceID;
// the op span is the root and every call into the program is its child.
// Program spans (Source "program") come from the obs tracer the program
// publishes and are parented under the benchmark call they ran inside.
type spanRec struct {
	TraceID  int64             `json:"trace_id"`
	SpanID   int64             `json:"span_id"`
	ParentID int64             `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Source   string            `json:"source"`
	StartNS  int64             `json:"start_ns"`
	DurNS    int64             `json:"dur_ns"`
	Flops    int64             `json:"flops,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

func (s *spanRec) end() int64 { return s.StartNS + s.DurNS }

// isCall reports whether s is a benchmark span around one call into the
// program (a child of an op span).
func (s *spanRec) isCall() bool { return s.Source == "bench" && s.ParentID != 0 }

// tracer keeps every span in memory, grouped by trace, until the run
// ends. A nil tracer records nothing, so untraced ops pay one nil check
// per span.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	next   int64
	order  []int64
	traces map[int64][]spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now(), traces: make(map[int64][]spanRec)} }

// span is an open span; end commits it.
type span struct {
	tr    *tracer
	rec   spanRec
	start time.Time
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// op opens the root span of a new trace.
func (t *tracer) op(name string) *span {
	if t == nil {
		return nil
	}
	id := t.newID()
	return &span{tr: t, rec: spanRec{TraceID: id, SpanID: id, Name: name, Source: "bench"}, start: time.Now()}
}

// child opens a span under s in the same trace.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{tr: s.tr, start: time.Now(), rec: spanRec{
		TraceID: s.rec.TraceID, SpanID: s.tr.newID(), ParentID: s.rec.SpanID, Name: name, Source: "bench",
	}}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.StartNS = s.start.Sub(s.tr.t0).Nanoseconds()
	s.rec.DurNS = time.Since(s.start).Nanoseconds()
	s.tr.add(s.rec)
}

func (t *tracer) add(rec spanRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.traces[rec.TraceID]; !ok {
		t.order = append(t.order, rec.TraceID)
	}
	t.traces[rec.TraceID] = append(t.traces[rec.TraceID], rec)
}

// adopt parents the program's obs spans under the benchmark call spans
// of the given traces (all traces when ids is nil): each program span
// goes to the call whose interval holds its start. Program spans that
// started outside every call (set-up, untraced passes) are dropped.
func (t *tracer) adopt(prog []obs.SpanRecord, ids ...int64) {
	t.mu.Lock()
	if ids == nil {
		ids = t.order
	}
	var calls []spanRec
	for _, id := range ids {
		for _, s := range t.traces[id] {
			if s.isCall() {
				calls = append(calls, s)
			}
		}
	}
	t.mu.Unlock()
	sort.Slice(calls, func(i, j int) bool { return calls[i].StartNS < calls[j].StartNS })
	base := t.t0.UnixMicro()
	for _, p := range prog {
		start := (p.StartUS - base) * 1000
		// The program stamps spans at microsecond resolution, so a span
		// may appear to start up to 1µs before its call.
		i := sort.Search(len(calls), func(i int) bool { return calls[i].StartNS > start+1000 }) - 1
		if i < 0 || start > calls[i].end() {
			continue
		}
		t.add(spanRec{
			TraceID: calls[i].TraceID, SpanID: t.newID(), ParentID: calls[i].SpanID,
			Name: p.Name, Source: "program", StartNS: start,
			DurNS: int64(p.Seconds * 1e9), Flops: p.Flops, Attrs: p.Attrs,
		})
	}
}

// each calls fn with the spans of every trace, in trace order.
func (t *tracer) each(fn func(spans []spanRec)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.order {
		fn(t.traces[id])
	}
}

// writeJSONL writes every span, one JSON object per line, trace by
// trace.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var encErr error
	t.each(func(spans []spanRec) {
		for i := range spans {
			if encErr == nil {
				encErr = enc.Encode(&spans[i])
			}
		}
	})
	if encErr == nil {
		encErr = w.Flush()
	}
	if encErr != nil {
		f.Close()
		return encErr
	}
	return f.Close()
}
