package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. An ingest's client, server
// and durable spans share its Idempotency-Key as Req, a query's client and
// server spans its benchmark id; each span's Parent is the span that caused
// it.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Status is the HTTP status of a client or server span; Failed marks an
	// engine call that returned an error.
	Status int  `json:"status,omitempty"`
	Failed bool `json:"failed,omitempty"`
	// First marks a query engine call that was the first of its method on
	// a new generation (the memoised views are built on it).
	First bool `json:"first,omitempty"`
	// AllocBytes is the heap allocated during a Refresh span.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory while on is set; the run writes them out at
// the end. Off, every recording call is a single atomic load.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	// query is the id of the query ServeHTTP span in flight on the single
	// query connection: engine calls made meanwhile are its children.
	query atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the monotonic time since the run's epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// link parents each server span on its client span and each durable ingest
// on its server span, by their shared request id.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	client, server := make(map[string]int64), make(map[string]int64)
	for _, s := range t.spans {
		switch s.Name {
		case "client.ingest", "client.query":
			client[s.Req] = s.ID
		case "server.ingest", "server.query":
			server[s.Req] = s.ID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "server.ingest", "server.query":
			s.Parent = client[s.Req]
		case "durable.ingest":
			s.Parent = server[s.Req]
		}
	}
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestHeader carries the benchmark's id of a query request; an ingest is
// identified by its Idempotency-Key.
const requestHeader = "X-Bench-Request"

// traced wraps the server's ServeHTTP in a span per request while tracing
// is on.
type traced struct {
	h  http.Handler
	tr *tracer
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (m traced) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !m.tr.on.Load() {
		m.h.ServeHTTP(w, r)
		return
	}
	id := m.tr.newID()
	req := r.Header.Get("Idempotency-Key")
	query := req == ""
	if query {
		req = r.Header.Get(requestHeader)
		m.tr.query.Store(id)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := m.tr.now()
	m.h.ServeHTTP(sw, r)
	end := m.tr.now()
	if query {
		m.tr.query.Store(0)
	}
	name := "server.ingest"
	if query {
		name = "server.query"
	}
	m.tr.add(span{ID: id, Name: name, Req: req, Start: start, End: end, Status: sw.status})
}
