// Package server is the HTTP/JSON front end on a kbt engine: batched,
// backpressured ingest through one bounded queue and one writer, and
// lock-free reads of the current generation — queries never block a running
// refresh, because the engine's read path is an atomic generation load.
//
// Every ingest batch reaches the engine as a single Ingest (or IngestKeyed)
// call, so a batch is applied whole or not at all, and a 2xx acks a fully
// applied (and, on a durable engine, fsync-ed) batch.
//
// The API is versioned under /v1/. The original unversioned paths remain as
// deprecated aliases with identical behavior, marked with a Deprecation
// header and a Link to their successor. Every non-2xx response carries the
// uniform JSON envelope {"error": <message>, "code": <machine code>}.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"kbt"
)

// Engine is what the server serves: the shared method set of kbt.Engine and
// kbt.DurableEngine.
type Engine interface {
	Ingest(batch ...kbt.Extraction) error
	IngestKeyed(key string, batch ...kbt.Extraction) error
	Len() int
	Pending() int
	Refresh() (*kbt.Result, error)
	Current() (*kbt.Result, bool)
	TopSources(k int) ([]kbt.Source, bool)
	TopTriples(k int) ([]kbt.TripleVerdict, bool)
	CopyDeps() ([]kbt.CopyDependence, error)
	Fused(item string) (kbt.FusedItem, error)
	Stats() (kbt.RefreshStats, bool)
}

// HealthReporter is the optional capability a durable engine adds: health
// state, fault/heal counters and storage watermarks. /v1/healthz and
// /v1/stats surface it when present; a plain in-memory engine is always
// reported healthy.
type HealthReporter interface {
	Health() kbt.HealthStatus
}

// Options configures New.
type Options struct {
	// Queue bounds the number of ingest batches admitted but not yet
	// applied; a POST /v1/ingest that finds the queue full is refused with
	// 429 (default 64).
	Queue int
	// RefreshEvery refreshes after every N applied batches (default 1;
	// negative disables automatic refreshes — POST /v1/refresh still
	// works). The refresh runs inline on the writer, after the batch that
	// made it due has been acked.
	RefreshEvery int
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
}

func (o *Options) fill() {
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.RefreshEvery == 0 {
		o.RefreshEvery = 1
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
}

// job is one admitted batch: its records, its client idempotency key ("" for
// none) and the channel the writer reports the engine's verdict on.
type job struct {
	batch []kbt.Extraction
	key   string
	done  chan error
}

// Server is an http.Handler. Ingest funnels through one bounded queue into a
// single writer goroutine — the queue is the backpressure boundary; queries
// go straight to the engine's lock-free read path.
type Server struct {
	eng   Engine
	opt   Options
	queue chan job

	mu       sync.Mutex
	applied  int    // batches applied since the last automatic refresh
	lastErr  string // most recent automatic refresh failure, "" when none
	stopping bool

	stopped chan struct{} // closed once the writer has drained the queue
	mux     *http.ServeMux
}

// New starts a server (and its writer) on eng.
func New(eng Engine, opt Options) *Server {
	opt.fill()
	s := &Server{
		eng:     eng,
		opt:     opt,
		queue:   make(chan job, opt.Queue),
		stopped: make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	s.route("/ingest", s.handleIngest)
	s.route("/refresh", s.handleRefresh)
	s.route("/top-sources", s.handleTopSources)
	s.route("/top-triples", s.handleTopTriples)
	s.route("/source", s.handleSource)
	s.route("/copy-deps", s.handleCopyDeps)
	s.route("/fused", s.handleFused)
	s.route("/healthz", s.handleHealthz)
	s.route("/stats", s.handleStats)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "unknown path "+r.URL.Path)
	})
	go s.writer()
	return s
}

// route registers h under /v1 and, deprecated, under the bare path.
func (s *Server) route(path string, h http.HandlerFunc) {
	s.mux.HandleFunc("/v1"+path, h)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "</v1"+path+`>; rel="successor-version"`)
		h(w, r)
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the queue (every admitted batch is still applied and acked)
// and stops the writer.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.stopping {
		s.stopping = true
		close(s.queue)
	}
	s.mu.Unlock()
	<-s.stopped
}

// writer applies admitted batches in order, one engine call per batch. It
// acks the waiting handler first, then runs any refresh the batch made due.
func (s *Server) writer() {
	defer close(s.stopped)
	for j := range s.queue {
		var err error
		if j.key != "" {
			err = s.eng.IngestKeyed(j.key, j.batch...)
		} else {
			err = s.eng.Ingest(j.batch...)
		}
		j.done <- err
		if err == nil {
			s.batchApplied()
		}
	}
}

// batchApplied does the refresh bookkeeping after a batch is acked.
func (s *Server) batchApplied() {
	s.mu.Lock()
	s.applied++
	refresh := s.opt.RefreshEvery > 0 && s.applied >= s.opt.RefreshEvery
	if refresh {
		s.applied = 0
	}
	s.mu.Unlock()
	if !refresh {
		return
	}
	_, rerr := s.eng.Refresh()
	s.mu.Lock()
	if rerr != nil {
		s.lastErr = rerr.Error()
	} else {
		s.lastErr = ""
	}
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorReply is the uniform non-2xx body: a human-readable message plus a
// stable machine-readable code (method_not_allowed, malformed_batch,
// empty_batch, invalid_record, queue_full, shutting_down, engine_closed,
// read_only, refresh_failed, bad_query, no_generation, unknown_source,
// unknown_item, copydetect_disabled, fusion_disabled, not_found).
type errorReply struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorReply{Error: msg, Code: code})
}

// writeRetryError is writeError plus a Retry-After header: every 429 and 503
// the server emits tells the client when trying again is worthwhile.
func writeRetryError(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, status, code, msg)
}

// retrySecs rounds a probe delay up to whole seconds, at least 1.
func retrySecs(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryAfterSeconds picks the Retry-After for a fault-driven refusal: the
// engine's time-to-next-probe when it reports health, else a flat 1s.
func (s *Server) retryAfterSeconds() int {
	if hr, ok := s.eng.(HealthReporter); ok {
		if h := hr.Health(); h.RetryAfter > 0 {
			return retrySecs(h.RetryAfter)
		}
	}
	return 1
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	var batch []kbt.Extraction
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&batch)
	if err == nil {
		// The body is exactly one JSON array: anything but whitespace after
		// it refuses the whole request rather than dropping the rest.
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the batch array")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed_batch", "malformed batch: "+err.Error())
		return
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "empty batch")
		return
	}
	// An Idempotency-Key header makes the batch retry-safe: the engine acks
	// (without re-applying) a key it has already durably applied.
	j := job{batch: batch, key: r.Header.Get("Idempotency-Key"), done: make(chan error, 1)}
	// Admission happens under mu so Close (which also takes mu before
	// closing the queue) can never race a send on a closed queue.
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		writeRetryError(w, http.StatusServiceUnavailable, "shutting_down", "shutting down", 1)
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		writeRetryError(w, http.StatusTooManyRequests, "queue_full", "ingest queue full, retry later", 1)
		return
	}
	if err := <-j.done; err != nil {
		switch {
		case errors.Is(err, kbt.ErrReadOnly):
			// Storage fault: the engine is serving reads only. Retryable —
			// and with an Idempotency-Key, retryable even when this very
			// request's fate is ambiguous.
			writeRetryError(w, http.StatusServiceUnavailable, "read_only", err.Error(), s.retryAfterSeconds())
		case errors.Is(err, kbt.ErrEngineClosed):
			writeRetryError(w, http.StatusServiceUnavailable, "engine_closed", err.Error(), 1)
		default:
			// Engine validation refused the batch.
			writeError(w, http.StatusBadRequest, "invalid_record", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"ingested": len(batch)})
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	if _, err := s.eng.Refresh(); err != nil {
		if errors.Is(err, kbt.ErrReadOnly) {
			writeRetryError(w, http.StatusServiceUnavailable, "read_only", err.Error(), s.retryAfterSeconds())
			return
		}
		writeError(w, http.StatusConflict, "refresh_failed", err.Error())
		return
	}
	stats, _ := s.eng.Stats()
	writeJSON(w, http.StatusOK, stats)
}

// parseK reads ?k=N (0 or absent = all).
func parseK(r *http.Request) (int, error) {
	q := r.URL.Query().Get("k")
	if q == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(q)
	if err != nil {
		return 0, fmt.Errorf("bad k %q", q)
	}
	return k, nil
}

func (s *Server) handleTopSources(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	k, err := parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	srcs, ok := s.eng.TopSources(k)
	if !ok {
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
		return
	}
	writeJSON(w, http.StatusOK, srcs)
}

func (s *Server) handleTopTriples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	k, err := parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	trs, ok := s.eng.TopTriples(k)
	if !ok {
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
		return
	}
	writeJSON(w, http.StatusOK, trs)
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing name parameter")
		return
	}
	res, ok := s.eng.Current()
	if !ok {
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
		return
	}
	src, ok := res.SourceByName(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_source", "unknown source "+name)
		return
	}
	writeJSON(w, http.StatusOK, src)
}

// writeLayerError maps the engine's layer-query sentinel errors onto the
// uniform envelope: a disabled layer is a 409 (the request conflicts with
// the server's configuration, and retrying won't help), a missing
// generation is the usual retryable 503, and an unknown item is a 404.
func writeLayerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, kbt.ErrCopyDetectDisabled):
		writeError(w, http.StatusConflict, "copydetect_disabled", err.Error())
	case errors.Is(err, kbt.ErrFusionDisabled):
		writeError(w, http.StatusConflict, "fusion_disabled", err.Error())
	case errors.Is(err, kbt.ErrNoGeneration):
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
	case errors.Is(err, kbt.ErrUnknownItem):
		writeError(w, http.StatusNotFound, "unknown_item", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (s *Server) handleCopyDeps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	k, err := parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	deps, err := s.eng.CopyDeps()
	if err != nil {
		writeLayerError(w, err)
		return
	}
	if k > 0 && k < len(deps) {
		deps = deps[:k]
	}
	writeJSON(w, http.StatusOK, deps)
}

func (s *Server) handleFused(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	item := r.URL.Query().Get("item")
	if item == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing item parameter")
		return
	}
	fi, err := s.eng.Fused(item)
	if err != nil {
		writeLayerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fi)
}

// healthReply is the /v1/healthz document. Status is healthy|degraded|
// readonly; a non-healthy report comes with a 503 and a Retry-After, so load
// balancers and retrying clients need no body parsing to do the right thing.
type healthReply struct {
	Status    string `json:"status"`
	Faults    uint64 `json:"faults,omitempty"`
	Heals     uint64 `json:"heals,omitempty"`
	LastFault string `json:"last_fault,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	reply := healthReply{Status: kbt.StateHealthy.String()}
	if hr, ok := s.eng.(HealthReporter); ok {
		h := hr.Health()
		reply.Status = h.State.String()
		reply.Faults = h.Faults
		reply.Heals = h.Heals
		reply.LastFault = h.LastFault
		if h.State != kbt.StateHealthy {
			w.Header().Set("Retry-After", strconv.Itoa(retrySecs(h.RetryAfter)))
			writeJSON(w, http.StatusServiceUnavailable, reply)
			return
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// statsReply is the /v1/stats document. The health block (health through
// compaction_drift) appears only when the engine reports health — i.e.
// when serving a durable engine.
type statsReply struct {
	Records   int               `json:"records"`
	Pending   int               `json:"pending"`
	Queued    int               `json:"queued"`
	Refreshed bool              `json:"refreshed"`
	Refresh   *kbt.RefreshStats `json:"refresh,omitempty"`
	LastError string            `json:"last_error,omitempty"`

	Health              string `json:"health,omitempty"`
	Faults              uint64 `json:"faults,omitempty"`
	Heals               uint64 `json:"heals,omitempty"`
	LastFault           string `json:"last_fault,omitempty"`
	WALBytes            int64  `json:"wal_bytes,omitempty"`
	CheckpointWatermark uint64 `json:"checkpoint_watermark,omitempty"`
	// CompactionDrift is a pointer so a durable engine reports a measured
	// zero while an in-memory one omits the field.
	CompactionDrift *float64 `json:"compaction_drift,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	reply := statsReply{
		Records: s.eng.Len(),
		Pending: s.eng.Pending(),
		Queued:  len(s.queue),
	}
	if st, ok := s.eng.Stats(); ok {
		reply.Refreshed = true
		reply.Refresh = &st
	}
	if hr, ok := s.eng.(HealthReporter); ok {
		h := hr.Health()
		reply.Health = h.State.String()
		reply.Faults = h.Faults
		reply.Heals = h.Heals
		reply.LastFault = h.LastFault
		reply.WALBytes = h.WALBytes
		reply.CheckpointWatermark = h.CheckpointWatermark
		reply.CompactionDrift = &h.CompactionDrift
	}
	s.mu.Lock()
	reply.LastError = s.lastErr
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}
