package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kbt"
	"kbt/internal/server"
)

// The shim stands where the server expects its engine, so the server keeps
// its health-aware 503/Retry-After path.
var (
	_ server.Engine         = (*shim)(nil)
	_ server.HealthReporter = (*shim)(nil)
)

// checkpointEvery is the refresh cadence at which the shim checkpoints.
const checkpointEvery = 16

// refreshMark is one Refresh's boundaries and the engine's Len when it
// began: every batch applied by then is in the generation it publishes.
type refreshMark struct {
	start, end time.Duration
	lenAtStart int
	ok         bool
}

// shim forwards every server.Engine call to a DurableEngine unchanged. It
// always records refresh boundaries (the visibility metric needs them),
// drives the checkpoint cadence through the public Checkpoint, and, while
// tracing is on, records a span around every call.
type shim struct {
	d   *kbt.DurableEngine
	dir string
	tr  *tracer

	// lastIngest is the span id of the most recent traced IngestKeyed: with
	// one lane, the Refresh and Checkpoint that follow it on the lane worker
	// were triggered by it.
	lastIngest atomic.Int64
	// gen counts published generations (refreshes and checkpoints), so a
	// query call can tell whether it is the first on its generation.
	gen atomic.Int64
	// queryGen is the generation each query method last ran on.
	queryGen sync.Map // method name -> int64

	mu        sync.Mutex // guards the fields below
	marks     []refreshMark
	sinceCkpt int
	stats     []kbt.RefreshStats
	// compactedAt is when each compaction finished, traced or not.
	compactedAt []time.Duration
	// batchesSinceCompaction counts the ingest batches the next recovery
	// replays (the base counts as one).
	batchesSinceCompaction int
	// applied and refreshed count the batches applied and the refreshes
	// (with their checkpoints) finished: with one lane every batch is
	// followed by one refresh, so the lane is idle when they are equal.
	applied, refreshed int
}

func newShim(d *kbt.DurableEngine, dir string, tr *tracer, baseBatches int) *shim {
	return &shim{d: d, dir: dir, tr: tr, batchesSinceCompaction: baseBatches}
}

func (s *shim) IngestKeyed(key string, batch ...kbt.Extraction) error {
	if !s.tr.on.Load() {
		err := s.d.IngestKeyed(key, batch...)
		s.noteApplied(err)
		return err
	}
	id := s.tr.newID()
	start := s.tr.now()
	err := s.d.IngestKeyed(key, batch...)
	end := s.tr.now()
	s.noteApplied(err)
	s.tr.add(span{ID: id, Name: "durable.ingest", Req: key, Start: start, End: end, Failed: err != nil})
	s.lastIngest.Store(id)
	return err
}

func (s *shim) noteApplied(err error) {
	if err != nil {
		return
	}
	s.mu.Lock()
	s.batchesSinceCompaction++
	s.applied++
	s.mu.Unlock()
}

func (s *shim) Ingest(batch ...kbt.Extraction) error { return s.IngestKeyed("", batch...) }

func (s *shim) Validate(batch ...kbt.Extraction) error { return s.d.Validate(batch...) }
func (s *shim) Len() int                               { return s.d.Len() }
func (s *shim) Pending() int                           { return s.d.Pending() }
func (s *shim) Stats() (kbt.RefreshStats, bool)        { return s.d.Stats() }
func (s *shim) Health() kbt.HealthStatus               { return s.d.Health() }

// Refresh forwards to the engine, then checkpoints after every
// checkpointEvery-th successful refresh — the cadence
// DurableOptions.CheckpointEvery would run inside Refresh, driven from here
// so the checkpoint gets its own span.
func (s *shim) Refresh() (*kbt.Result, error) {
	defer func() {
		s.mu.Lock()
		s.refreshed++
		s.mu.Unlock()
	}()
	on := s.tr.on.Load()
	var allocs uint64
	if on {
		allocs = heapAllocs()
	}
	n := s.d.Len()
	start := s.tr.now()
	r, err := s.d.Refresh()
	end := s.tr.now()
	s.gen.Add(1)
	s.mu.Lock()
	s.marks = append(s.marks, refreshMark{start: start, end: end, lenAtStart: n, ok: err == nil})
	due := false
	if err == nil {
		s.sinceCkpt++
		if due = s.sinceCkpt >= checkpointEvery; due {
			s.sinceCkpt = 0
		}
	}
	s.mu.Unlock()
	if on {
		sp := span{ID: s.tr.newID(), Parent: s.lastIngest.Load(), Name: "durable.refresh",
			Start: start, End: end, AllocBytes: heapAllocs() - allocs, Failed: err != nil}
		if st, ok := s.d.Stats(); ok && err == nil {
			s.mu.Lock()
			s.stats = append(s.stats, st)
			s.mu.Unlock()
		}
		s.tr.add(sp)
	}
	if err != nil || !due {
		return r, err
	}
	start = s.tr.now()
	cerr := s.d.Checkpoint()
	end = s.tr.now()
	s.gen.Add(1)
	compacted := cerr == nil && s.compacted()
	if on {
		name := "durable.checkpoint"
		if compacted {
			name = "durable.compaction"
		}
		s.tr.add(span{ID: s.tr.newID(), Parent: s.lastIngest.Load(), Name: name,
			Start: start, End: end, Failed: cerr != nil})
	}
	if cerr != nil {
		return nil, fmt.Errorf("refresh succeeded but its checkpoint failed: %w", cerr)
	}
	if cur, ok := s.d.Current(); ok {
		return cur, nil
	}
	return r, nil
}

// compacted tells a compaction from a delta by the chain files on disk: a
// compaction leaves the base alone, a delta adds a checkpoint-*.delta link.
func (s *shim) compacted() bool {
	deltas, err := filepath.Glob(filepath.Join(s.dir, "checkpoint-*.delta"))
	if err != nil || len(deltas) > 0 {
		return false
	}
	s.mu.Lock()
	s.compactedAt = append(s.compactedAt, s.tr.now())
	s.batchesSinceCompaction = 1
	s.mu.Unlock()
	return true
}

func noop() {}

// traceQuery opens a span around one read-path call while tracing is on;
// the returned func closes it.
func (s *shim) traceQuery(method string) func() {
	if !s.tr.on.Load() {
		return noop
	}
	g := s.gen.Load()
	prev, seen := s.queryGen.Swap(method, g)
	sp := span{ID: s.tr.newID(), Parent: s.tr.query.Load(), Name: "query." + method,
		Start: s.tr.now(), First: !seen || prev.(int64) != g}
	return func() {
		sp.End = s.tr.now()
		s.tr.add(sp)
	}
}

func (s *shim) Current() (*kbt.Result, bool) {
	defer s.traceQuery("current")()
	return s.d.Current()
}

func (s *shim) TopSources(k int) ([]kbt.Source, bool) {
	defer s.traceQuery("top_sources")()
	return s.d.TopSources(k)
}

func (s *shim) TopTriples(k int) ([]kbt.TripleVerdict, bool) {
	defer s.traceQuery("top_triples")()
	return s.d.TopTriples(k)
}

func (s *shim) CopyDeps() ([]kbt.CopyDependence, error) {
	defer s.traceQuery("copy_deps")()
	return s.d.CopyDeps()
}

func (s *shim) Fused(item string) (kbt.FusedItem, error) {
	defer s.traceQuery("fused")()
	return s.d.Fused(item)
}

// chainState reports the batches the next recovery would replay, and
// whether the lane is idle (every applied batch's refresh has finished).
func (s *shim) chainState() (sinceCompaction int, idle bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batchesSinceCompaction, s.applied == s.refreshed
}

// refreshMarks returns the recorded refresh boundaries.
func (s *shim) refreshMarks() []refreshMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]refreshMark(nil), s.marks...)
}
