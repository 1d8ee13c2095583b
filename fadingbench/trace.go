package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestHeader carries the benchmark's request id from the client to the
// server-side handler wrapper, so both ends' spans of one request share it.
const requestHeader = "X-Bench-Request"

// span is one timed call: a name, its interval in nanoseconds since the
// tracer started, the span that caused it (0 for a root) and the request id
// shared by the client and server spans of one HTTP request.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the monotonic time since the tracer started, in nanoseconds.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// newID reserves a span id, so children can name a parent still running.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span, assigning an id when it has none.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedHandler wraps a replica's handler. While its tracer is set, every
// request runs in a "service.handler" span, and every Write and Flush of
// the response is timed as a "service.write" or "service.flush" child.
// While it is nil, requests go straight to the service.
type tracedHandler struct {
	inner http.Handler
	tr    *atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64)
	id := tr.newID()
	start := tr.now()
	h.inner.ServeHTTP(&tracedWriter{ResponseWriter: w, tr: tr, parent: id, req: req}, r)
	tr.record(span{Name: "service.handler", ID: id, Req: req, Start: start, End: tr.now()})
}

// tracedWriter is the benchmark's ResponseWriter wrapper. It forwards
// Header and WriteHeader untouched, so the service's trailers still reach
// the client.
type tracedWriter struct {
	http.ResponseWriter
	tr     *tracer
	parent int64
	req    uint64
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := w.tr.now()
	n, err := w.ResponseWriter.Write(p)
	w.tr.record(span{Name: "service.write", Parent: w.parent, Req: w.req, Start: start, End: w.tr.now()})
	return n, err
}

func (w *tracedWriter) Flush() {
	f, ok := w.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	start := w.tr.now()
	f.Flush()
	w.tr.record(span{Name: "service.flush", Parent: w.parent, Req: w.req, Start: start, End: w.tr.now()})
}

func (w *tracedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
