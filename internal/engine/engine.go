// Package engine provides a sharded, incremental driver for the multi-layer
// KBT model — the serving-oriented counterpart to the batch core.Run.
//
// The batch path recompiles and re-estimates the whole corpus on every
// change. The engine instead partitions the data-item space into shards
// (triple.Shard), keeps the posteriors and model parameters of the previous
// estimation, and on Refresh after an Ingest:
//
//   - extends the previous snapshot with the pending records
//     (triple.Snapshot.Extend — append-only, bit-identical to a full
//     recompile but proportional to the ingest; Options.FullRecompile keeps
//     the Compile path as the equivalence oracle),
//   - extends the previous refresh's EM state the same way (core.NewEMFrom):
//     parameters, priors, vote caches, coverage masks and every index
//     structure carry over append-only, so no working array is rebuilt from
//     the corpus,
//   - runs each E-step only over a sub-shard dirty scope (core.ScopeSet) of
//     (shard, full | item-range) pairs: the items sharing a (source,
//     predicate) absence-vote cell with a new record, plus whatever the
//     per-unit staleness ledger (core.EM.EnableStaleness) marks as holding
//     above-Tol accumulated parameter drift — narrow units mark exactly
//     their items' ranges, only units reaching a quarter of the corpus mark
//     whole shards — so the settling sweeps an ingest triggers confine
//     themselves to the rows that are actually stale, and a shard touched
//     only through ranges settles its remainder for free
//     (RefreshStats.PartialShards),
//   - updates the global M-step aggregates from exactly the dirty scope's
//     contribution deltas (core.Options.IncrementalAggregates), with a
//     periodic full re-aggregation bounding floating-point drift;
//     Options.FullAggregates keeps every M-step a full aggregation,
//   - publishes the result as an immutable generation behind an atomic
//     pointer (core.BuildResultFrom): only the touched shards' posterior
//     chunks and the moved units' parameter chunks (the copy-on-write
//     A/P/R/Q and expected-triple vectors behind Result's accessors) are
//     copied out of the working arrays, every other chunk is shared with
//     the previous generation, and readers (Last) never block a running
//     Refresh — an old generation a reader holds stays valid and bit-stable
//     across any number of later swaps.
//
// Rebase re-anchors without recompiling: it starts a new engine on another
// engine's records and current snapshot, and the new engine's first Refresh
// runs the cold estimate on that snapshot. The durable layer's checkpoint
// compaction uses it to put the live engine on the state recovery rebuilds.
//
// Stages I and II of Algorithm 1 are independent per candidate triple
// respectively per item, so each shard's E-step runs as one task on the
// internal/parallel worker pool with no cross-shard writes; stages III and
// IV (the per-source and per-extractor M-steps) stay global but, on the
// incremental path, cost only the dirty contributions. A cold Refresh
// executes the identical per-index arithmetic as core.Run and reproduces its
// posteriors exactly.
package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kbt/internal/copydetect"
	"kbt/internal/core"
	"kbt/internal/fusion"
	"kbt/internal/parallel"
	"kbt/internal/triple"
)

// Options configures an Engine. Start from DefaultOptions.
type Options struct {
	// Shards is the number of item partitions (default 8). More shards
	// mean finer-grained dirtiness tracking and more parallel E-step tasks.
	Shards int
	// Core configures the multi-layer model (default core.DefaultOptions).
	Core core.Options
	// SourceKey and ExtractorKey fix the granularity. They must be pure
	// functions of the record — the split-and-merge "auto" granularity
	// reassigns units as data grows and is not supported incrementally.
	// Defaults: triple.SourceKeyWebsite, triple.ExtractorKeyName.
	SourceKey    triple.SourceKeyFunc
	ExtractorKey triple.ExtractorKeyFunc
	// Workers bounds the parallelism of the sharded E-step and the global
	// M-steps. Non-zero values supersede Core.Workers; 0 defers to
	// Core.Workers, with 0 there too meaning all CPUs.
	Workers int
	// FullRecompile forces every Refresh to rebuild the snapshot with
	// Dataset.Compile over the whole corpus, rebuild the EM state from it,
	// and aggregate every M-step in full — the pure batch-equivalent oracle.
	// The incremental paths reproduce it (bit-identically for state
	// extension, to ≤1e-9 for the delta aggregates), so this is off by
	// default; it remains the equivalence oracle in tests and an operational
	// escape hatch.
	FullRecompile bool
	// FullAggregates keeps the extended-state warm path but aggregates the
	// global M-steps in full every iteration instead of applying dirty-set
	// deltas. The middle point between the oracle and the default: state
	// extension is bit-exact, so this mode matches FullRecompile to the bit,
	// while the delta aggregates trade ~1e-12 of reaggregation drift for
	// O(dirty) M-steps.
	FullAggregates bool

	// CopyDetect maintains streaming inter-source copy statistics: after
	// every refresh, the per-pair shared-value counts of the touched shards
	// are recomputed and folded into a persistent tracker, and the resulting
	// dependence list publishes with the generation (Result.CopyDeps) —
	// integer-exactly what a batch copydetect.Detect over the published
	// evidence would count. Under FullRecompile the batch Detect itself runs
	// every refresh (the bit-exact oracle).
	CopyDetect bool
	// Copy configures the detector; the zero value means
	// copydetect.DefaultOptions().
	Copy copydetect.Options
	// CopyDiscount feeds the detected dependencies back into the E-step:
	// the less-accurate member of each dependent pair keeps only the
	// independent share 1 − CopyRate·p(dependent) of its Stage II vote, so
	// copied mistakes stop counting as corroboration. The weight movement is
	// charged to the staleness ledger (the discounted source's shards
	// re-estimate at the next refresh under the usual Tol contract), and a
	// refresh whose discounts moved by ≥ Tol publishes unconverged so the
	// feedback settles instead of being frozen by the NoOp shortcut.
	// Implies CopyDetect.
	CopyDiscount bool
	// Fusion maintains the paper's single-layer fusion baseline (§2.2) as a
	// streaming per-item posterior store over the same record feed, at
	// provenance granularity: each refresh re-fuses only the items the
	// ingest touched plus those whose provenance accuracies drifted beyond
	// the fusion Tol (fusion.Incremental). The fused posteriors publish with
	// the generation (Result.Fusion / Result.FusionSnap).
	Fusion bool
	// Fuse configures fusion; a zero N means fusion.DefaultOptions(). Under
	// FullRecompile or FullAggregates the store runs with full M-step
	// aggregation — the fusion oracle mode.
	Fuse fusion.Options
}

// DefaultOptions returns the engine defaults: 8 shards, website sources,
// per-system extractors, and the paper's model settings.
func DefaultOptions() Options {
	return Options{
		Shards:       8,
		Core:         core.DefaultOptions(),
		SourceKey:    triple.SourceKeyWebsite,
		ExtractorKey: triple.ExtractorKeyName,
	}
}

// Result is the outcome of one Refresh.
type Result struct {
	// Snapshot is the compiled view the inference ran on.
	Snapshot *triple.Snapshot
	// Inference holds the posteriors and parameter estimates, in the same
	// shape core.Run returns.
	Inference *core.Result
	// Warm reports whether the refresh warm-started from a previous one.
	Warm bool
	// Extended reports whether the snapshot was built by extending the
	// previous one (the O(ingest) path) rather than recompiling the corpus.
	// False on a NoOp refresh: no snapshot work happened at all.
	Extended bool
	// NoOp reports that the refresh had nothing to do — no pending records
	// and an already-converged previous estimate — and served the cached
	// result unchanged.
	NoOp bool
	// FirstPassShards is the number of shards the first EM iteration
	// re-estimated (== TotalShards on a cold refresh); TotalShards is the
	// configured shard count.
	FirstPassShards, TotalShards int
	// TouchedShards is the number of distinct shards any EM iteration of the
	// refresh re-estimated, wholly or in part; SettledShards = TotalShards -
	// TouchedShards is the corpus fraction whose cached posteriors were
	// already within the staleness tolerance of the published parameters and
	// never ran. PartialShards counts the touched shards that were only ever
	// re-estimated at sub-shard item-range granularity — their settled
	// remainder never ran either.
	TouchedShards, SettledShards int
	PartialShards                int
	// Escalations counts the EM iterations whose E-step set had to widen
	// beyond the ingest footprint to re-anchor drift-exceeding shards (zero
	// on cold refreshes, where the footprint is everything).
	Escalations int
	// AggDeltaSteps / AggFullSteps count the global M-step stage invocations
	// of this refresh that updated the incremental aggregates by dirty-set
	// deltas respectively re-aggregated in full (both zero when incremental
	// aggregates are disabled).
	AggDeltaSteps, AggFullSteps int
	// CopyDeps is the generation's copy-dependence list, strongest-first,
	// scored against this generation's posteriors and accuracies (nil unless
	// Options.CopyDetect). CopyPairs = len(CopyDeps).
	CopyDeps  []copydetect.Dependence
	CopyPairs int
	// Fusion / FusionSnap are the generation's single-layer fused posteriors
	// and the provenance-granularity snapshot its dense ids resolve against
	// (nil unless Options.Fusion). FusedItems counts the items this refresh
	// re-fused; FusionIterations its fusion EM iterations (both zero on a
	// NoOp refresh, which carries the previous fusion generation unchanged).
	Fusion           *fusion.Result
	FusionSnap       *triple.Snapshot
	FusedItems       int
	FusionIterations int
}

// Engine accumulates extraction records and re-estimates KBT incrementally.
// All methods are safe for concurrent use; Ingest never blocks on a running
// Refresh (the estimation runs outside the state lock), so a live feed can
// keep streaming while the model re-estimates.
type Engine struct {
	// refreshMu serialises Refresh calls; mu guards the fields below and
	// is held only briefly (Ingest, accessors, Refresh's snapshot/publish
	// phases). The persisted warm-start state is written exclusively by
	// Refresh, so the estimation phase may read it without mu.
	refreshMu sync.Mutex
	mu        sync.Mutex
	opt       Options

	ds      *triple.Dataset
	pending []triple.Record // ingested since the last Refresh

	// seed is the compiled snapshot a Rebase hands the new engine, covering
	// exactly its first seedLen records; the first Refresh runs its cold
	// estimate on it instead of compiling the records again. Written under
	// mu, read by Refresh, cleared once a refresh publishes.
	seed    *triple.Snapshot
	seedLen int

	// State persisted across refreshes. On the default path the EM state
	// itself persists: core.NewEMFrom extends em's index structures,
	// parameters, priors and M-step aggregates append-only with the
	// snapshot, so nothing is rebuilt from the corpus. Under FullRecompile
	// the previous em is only read, to remap the carried values into a
	// freshly built state by stable dense id / (w,d,v) identity. The
	// posterior arrays (cProb, valueProb, restMass, coveredItem) are
	// engine-owned and likewise extended in place on the default path.
	// shards holds the current snapshot's shard views, extended with the
	// snapshot on the warm path. srcInc/extInc are cloned copies of the last
	// refresh's inclusion masks, kept for dirty-shard escalation checks.
	snap        *triple.Snapshot
	shards      []triple.Shard
	em          *core.EM
	cProb       []float64
	valueProb   [][]float64
	restMass    []float64
	coveredItem []bool
	srcInc      []bool
	extInc      []bool
	// lastTouched is the per-shard touched mask of the most recent refresh —
	// the copy-on-write set its publication rebuilt (kept for diagnostics
	// and the publication benchmarks).
	lastTouched []bool

	// Refresh-loop scratch, owned exclusively by Refresh (serialised by
	// refreshMu) and persisted across refreshes so a steady-state warm
	// refresh re-allocates none of it: the E-step scopes (current,
	// successor, and the ingest footprint), the materialized per-scope-entry
	// index lists, and the per-iteration parameter/prior snapshots.
	scope, scopeNext, scopeBase *core.ScopeSet
	passItems, passTris         [][]int
	passItemBuf, passTriBuf     []int
	passEnds                    [][2]int
	prevA, prevP, prevR, prevLO []float64

	// tracker persists the streaming copy-detection statistics across
	// refreshes (nil unless CopyDetect, and nil under FullRecompile, where
	// the batch Detect runs instead). fus persists the streaming fusion
	// store (nil unless Fusion). Both are written only by Refresh under
	// refreshMu.
	tracker *copydetect.Tracker
	fus     *fusion.Incremental

	// last is the published generation, swapped atomically so readers never
	// block a running Refresh and Refresh never waits for readers. Each
	// Result is immutable once stored; generations share untouched posterior
	// chunks (core.BuildResultFrom), and an old generation a reader still
	// holds stays fully valid after any number of swaps.
	last atomic.Pointer[Result]
}

// New returns an empty engine.
func New(opt Options) *Engine {
	if opt.Shards < 1 {
		opt.Shards = DefaultOptions().Shards
	}
	if opt.SourceKey == nil {
		opt.SourceKey = triple.SourceKeyWebsite
	}
	if opt.ExtractorKey == nil {
		opt.ExtractorKey = triple.ExtractorKeyName
	}
	if opt.CopyDiscount {
		opt.CopyDetect = true
	}
	if opt.CopyDetect && opt.Copy == (copydetect.Options{}) {
		opt.Copy = copydetect.DefaultOptions()
	}
	if opt.Fusion {
		if opt.Fuse.N == 0 {
			opt.Fuse = fusion.DefaultOptions()
		}
		if opt.FullRecompile || opt.FullAggregates {
			opt.Fuse.FullAggregates = true
		}
	}
	return &Engine{opt: opt, ds: triple.NewDataset()}
}

// Ingest validates and appends extraction records. The new evidence takes
// effect at the next Refresh.
//
// Validation happens here, not at Refresh: a malformed record (empty
// identity fields, an out-of-range confidence, or a record the configured
// granularity maps to an empty unit label) would otherwise compile into a
// degenerate source or value and silently skew every later estimate. The
// batch is atomic — on error no record is ingested.
func (e *Engine) Ingest(recs ...triple.Record) error {
	if err := e.Validate(recs...); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.ds.Records) + len(recs); n > cap(e.ds.Records) {
		// Reallocate with a quarter of headroom: a bulk append (recovery
		// ingests a whole compacted base in one call) would otherwise fit
		// exactly, and the next small batch would copy the corpus again.
		e.ds.Records = slices.Grow(e.ds.Records, len(recs)+n/4)
	}
	e.ds.Records = append(e.ds.Records, recs...)
	e.pending = append(e.pending, recs...)
	return nil
}

// Rebase returns a new engine holding e's records whose first Refresh runs
// the ordinary cold estimate (shard views, fresh EM state, Bootstrap, full
// EM, fresh copy tracker and fusion store) on e's current compiled snapshot
// instead of compiling the records again. Extend is bit-identical to
// Compile, so the result is the one a new engine that ingested the same
// records would publish, without the O(corpus) compile. Under FullRecompile
// the new engine compiles anyway: that mode is the correctness oracle.
//
// e must have no pending records, so that its snapshot covers exactly its
// records. The new engine shares the record slice capped at its length — its
// first Ingest copies — and never writes e's Dataset. e stays fully usable;
// only the new engine's refreshes extend the shared snapshot, unless e
// refreshes again, in which case the second extension copies (see
// triple.Snapshot.Extend).
func (e *Engine) Rebase() (*Engine, error) {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending) > 0 {
		return nil, fmt.Errorf("engine: cannot rebase with %d records pending; refresh first", len(e.pending))
	}
	n := len(e.ds.Records)
	recs := e.ds.Records[:n:n]
	r := New(e.opt)
	r.ds = &triple.Dataset{Records: recs}
	r.pending = recs
	if !e.opt.FullRecompile {
		r.seed, r.seedLen = e.snap, n
	}
	return r, nil
}

// Validate runs the per-record ingest validation over a batch without
// appending anything — the check side of Ingest, exposed so callers can
// refuse a malformed batch before doing any other work for it.
func (e *Engine) Validate(recs ...triple.Record) error {
	for i := range recs {
		if err := e.validateRecord(recs[i]); err != nil {
			return fmt.Errorf("engine: rejecting ingest batch, record %d: %w", i, err)
		}
	}
	return nil
}

// validateRecord rejects records that cannot compile consistently.
func (e *Engine) validateRecord(r triple.Record) error {
	switch {
	case r.Extractor == "":
		return errors.New("empty Extractor")
	case r.Website == "":
		return errors.New("empty Website")
	case r.Subject == "":
		return errors.New("empty Subject")
	case r.Predicate == "":
		return errors.New("empty Predicate")
	case r.Object == "":
		return errors.New("empty Object")
	case math.IsNaN(r.Confidence) || r.Confidence < 0 || r.Confidence > 1:
		return fmt.Errorf("confidence %v outside [0,1] (0 means unspecified)", r.Confidence)
	}
	if e.opt.SourceKey(r) == "" {
		return errors.New("record maps to an empty source label under the configured granularity (missing Page?)")
	}
	if e.opt.ExtractorKey(r) == "" {
		return errors.New("record maps to an empty extractor label under the configured granularity")
	}
	return nil
}

// Len returns the number of records ingested so far.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ds.Records)
}

// Records returns the full ingest-ordered record sequence. The returned
// slice is capped at its length, so a concurrent Ingest appends into fresh
// backing storage rather than aliasing the caller's view — the same
// append-only discipline the snapshot compiler relies on. Used by the
// durable engine to persist its checkpoint image.
func (e *Engine) Records() []triple.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.ds.Records)
	return e.ds.Records[:n:n]
}

// Pending returns the number of records ingested since the last Refresh.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// Last returns the most recent Refresh result, or nil before the first one.
// The read is a single atomic load — it never blocks a running Refresh —
// and the returned generation stays valid indefinitely: later refreshes
// publish new generations instead of mutating it.
func (e *Engine) Last() *Result {
	return e.last.Load()
}

// Refresh re-estimates the model over everything ingested so far and caches
// the result. The first call runs cold — identical to core.Run on the full
// dataset; later calls warm-start from the previous posteriors and only
// re-run the first E-step over the shards the new records touched. Calling
// Refresh with no new records resumes EM from the previous fixed point
// (useful when a prior run stopped at MaxIter before converging).
func (e *Engine) Refresh() (*Result, error) {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()

	// Snapshot the inputs under the state lock, estimate unlocked so
	// concurrent Ingest keeps streaming, then publish under the lock.
	// Records ingested after this point are left for the next Refresh.
	e.mu.Lock()
	nRec := len(e.ds.Records)
	if nRec == 0 {
		e.mu.Unlock()
		return nil, errors.New("engine: empty dataset")
	}
	warm := e.snap != nil
	nPending := len(e.pending)

	// Nothing new and the previous refresh converged: the estimates are
	// already at the fixed point, so serve them unchanged — with the
	// iteration count reflecting that no EM ran, and NoOp reporting that no
	// snapshot work happened at all (neither an extension nor a recompile).
	// An already-NoOp generation is served as the same pointer, keeping
	// reader-side caches keyed on it warm.
	if last := e.last.Load(); warm && nPending == 0 && last != nil && last.Inference.Converged {
		if last.NoOp {
			e.mu.Unlock()
			return last, nil
		}
		inf := *last.Inference
		inf.Iterations = 0
		res := &Result{
			Snapshot:        e.snap,
			Inference:       &inf,
			Warm:            true,
			NoOp:            true,
			FirstPassShards: 0,
			TotalShards:     last.TotalShards,
			SettledShards:   last.TotalShards,
			// The evidence is unchanged, so the copy and fusion layers carry
			// over whole: same dependence list, same fused generation, with
			// the work counters reporting that nothing ran.
			CopyDeps:   last.CopyDeps,
			CopyPairs:  len(last.CopyDeps),
			Fusion:     last.Fusion,
			FusionSnap: last.FusionSnap,
		}
		e.last.Store(res)
		e.mu.Unlock()
		return res, nil
	}
	// Both views are capped: a concurrent Ingest appends past them into
	// fresh backing storage, and nothing rewrites an ingested record.
	records := e.ds.Records[:nRec:nRec]
	pending := e.pending[:nPending:nPending]
	prevShards := e.shards
	seed, seedLen := e.seed, e.seedLen
	e.mu.Unlock()

	// Warm path: extend the previous snapshot and its shard views with just
	// the pending records — pending is exactly the record suffix ingested
	// since prev was built, so the result is bit-identical to recompiling
	// the corpus, at O(ingest) cost. Cold (and FullRecompile) refreshes
	// compile from scratch, except a rebased engine's first, which starts
	// from the snapshot Rebase handed over.
	prev := e.snap
	var snap *triple.Snapshot
	var shards []triple.Shard
	extended := false
	if warm && !e.opt.FullRecompile {
		if len(pending) == 0 {
			// Resuming an unconverged run: zero new records means the grown
			// snapshot would be content-identical, so reuse it outright
			// instead of paying Extend's table copies.
			snap, shards = prev, prevShards
		} else {
			snap = prev.Extend(pending)
			shards = snap.ExtendShards(prevShards, len(prev.Items), len(prev.Triples))
		}
		extended = true
	} else if seed != nil {
		// A rebased engine's first refresh: the donor's snapshot already
		// compiles records[:seedLen], and anything ingested since the Rebase
		// extends it, exactly as a compile of all the records would read.
		snap = seed
		if nRec > seedLen {
			snap = seed.Extend(records[seedLen:])
		}
		shards = snap.Shards(e.opt.Shards)
	} else {
		snap = (&triple.Dataset{Records: records}).Compile(triple.CompileOptions{
			SourceKey:    e.opt.SourceKey,
			ExtractorKey: e.opt.ExtractorKey,
		})
		shards = snap.Shards(e.opt.Shards)
	}

	copt := e.opt.Core
	copt.Workers = e.workers()
	copt.IncrementalAggregates = !e.opt.FullRecompile && !e.opt.FullAggregates
	if copt.IncrementalAggregates && copt.ReaggregateEvery < 1 {
		// The engine switches the aggregates on itself, so it must also
		// default the cadence knob callers with hand-built core.Options
		// never had a reason to set.
		copt.ReaggregateEvery = core.DefaultOptions().ReaggregateEvery
	}

	// Build the EM state: extended append-only from the previous refresh's
	// on the warm default path, fresh otherwise. The posterior arrays follow
	// the same split — extended in place versus freshly allocated (and, on
	// the FullRecompile warm path, re-seeded by identity remap).
	var em *core.EM
	var err error
	var cProb []float64
	var valueProb [][]float64
	var restMass []float64
	var coveredItem []bool
	if extended {
		em, err = core.NewEMFrom(e.em, snap, copt)
		if err != nil {
			return nil, err
		}
		// The ledger persisted (and extended) inside the EM state; the call
		// is a no-op then, and builds it on the first warm refresh of an
		// engine whose previous EM predates staleness tracking.
		em.EnableStaleness(len(shards))
		e.extendPosteriors(snap, prev, copt.Alpha)
		cProb, valueProb, restMass, coveredItem = e.cProb, e.valueProb, e.restMass, e.coveredItem
	} else {
		em, err = core.NewEM(snap, copt)
		if err != nil {
			return nil, err
		}
		em.EnableStaleness(len(shards))
		nTri, nItem := len(snap.Triples), len(snap.Items)
		cProb = make([]float64, nTri)
		valueProb = make([][]float64, nItem)
		restMass = make([]float64, nItem)
		coveredItem = make([]bool, nItem)
		if warm {
			e.carryOver(em, snap, prev, cProb, valueProb, restMass, coveredItem)
		}
	}

	// base is the ingest's footprint — the exact items whose inputs changed:
	// every item sharing a (source, predicate) absence-vote cell with a
	// pending record, resolved through the ledger's cell index at item
	// granularity. Every iteration's E-step scope is base plus the sub-shard
	// reach of the units the staleness ledger marks as carrying above-Tol
	// accumulated drift, so settling sweeps confine themselves to the stale
	// fraction and shrink back to the footprint as soon as the stale units
	// are re-anchored.
	nShards, nItems := len(shards), len(snap.Items)
	if e.scope == nil {
		e.scope, e.scopeNext, e.scopeBase = core.NewScopeSet(), core.NewScopeSet(), core.NewScopeSet()
	}
	base := e.scopeBase
	base.Reset(nShards, nItems)
	if !warm {
		em.Bootstrap(cProb)
		base.MarkAllFull()
	} else if len(pending) == 0 {
		// Resuming an unconverged run (the converged case returned above):
		// the cached posteriors already reproduce the cached parameters, so
		// a partial pass would measure zero delta and stall. Re-estimate
		// everything to make progress.
		base.MarkAllFull()
	} else if err := e.seedFootprint(em, snap, prev, pending, base); err != nil {
		return nil, err
	}
	touched := make([]bool, nShards)
	touchedWhole := make([]bool, nShards)
	escalations := 0
	// nextInto computes a successor scope: the footprint plus everything the
	// ledger marks stale, compiled to per-shard item ranges. The added count
	// is how many marks lie beyond the footprint — zero means the scope IS
	// the footprint (nothing stale outside it). Note the base-covers-all
	// short-circuit: MarkStale could add nothing, and skipping it keeps cold
	// full-pass iterations free of ledger walks.
	nextInto := func(dst *core.ScopeSet) int {
		dst.Reset(nShards, nItems)
		dst.MergeFrom(base)
		if dst.AllFull() {
			em.CompileScope(dst)
			return 0
		}
		added := em.MarkStale(copt.Tol, dst)
		em.CompileScope(dst)
		return added
	}
	noteTouched := func(s *core.ScopeSet) {
		for i := 0; i < s.Len(); i++ {
			si, full, _ := s.At(i)
			touched[si] = true
			if full {
				touchedWhole[si] = true
			}
		}
	}
	// The first pass already consults the ledger: drift carried from earlier
	// refreshes (sub-Tol residue that has since accumulated past Tol, or an
	// unconverged stop) joins the footprint immediately.
	sc, nsc := e.scope, e.scopeNext
	if nextInto(sc) > 0 {
		escalations++
	}
	noteTouched(sc)
	firstPass := sc.Len()
	aggDelta0, aggFull0 := em.AggStepCounts()

	// The EM loop mirrors core.Run stage for stage; only the index sets of
	// the shardable stages differ, and each index's arithmetic is
	// identical, so a cold run reproduces Run's posteriors exactly.
	//
	// Vote publication is per extractor under the same Tol contract as the
	// shard ledger (BeginIteration → selectiveVotes): an extractor's
	// published presence/absence votes move only once its own R/Q travel
	// since the last publication reaches Tol, which keeps the incremental
	// M-step's per-observation caches exactly valid for every vote-stable
	// extractor — no sub-Tol rescans. Cold refreshes recompute every vote
	// every iteration (bit-identical to core.Run); structural changes force
	// one full recompute.
	voteForce := false
	if warm {
		voteForce = len(snap.Extractors) != len(prev.Extractors) ||
			inclusionChanged(e.srcInc, em.SourceIncluded()) ||
			inclusionChanged(e.extInc, em.ExtractorIncluded())
	}
	nSrc, nExt := len(snap.Sources), len(snap.Extractors)
	e.prevA = ensureFloats(e.prevA, nSrc)
	e.prevP = ensureFloats(e.prevP, nExt)
	e.prevR = ensureFloats(e.prevR, nExt)
	e.prevLO = ensureFloats(e.prevLO, len(snap.Triples))
	prevA, prevP, prevR, prevLO := e.prevA, e.prevP, e.prevR, e.prevLO
	converged := false
	iter := 0
	for iter = 1; iter <= copt.MaxIter; iter++ {
		copy(prevA, em.A())
		copy(prevP, em.P())
		copy(prevR, em.R())

		// Full-pass iterations refresh every vote opportunistically: their
		// M-step re-aggregates (re-anchoring the vote-dependent caches)
		// regardless, so the recompute is free there, and it re-anchors the
		// per-extractor publication baselines early. All other warm
		// iterations let BeginIteration republish selectively under the
		// ledger's per-extractor Tol contract.
		refreshVotes := !warm || voteForce || sc.AllFull()
		em.BeginIteration(refreshVotes)
		if refreshVotes {
			voteForce = false
		}
		// Materialize the scope: full shards alias their shard views;
		// partially stale shards gather exactly their marked item ranges and
		// those items' candidate triples. Every list is a superset-free
		// statement of what this pass re-estimates — the same lists feed the
		// E-step, the M-step deltas and the prior diff.
		passItems, passTris := e.materializeScope(snap, shards, sc)
		e.eStep(em, passItems, passTris, cProb, valueProb, restMass, coveredItem)
		// The pass re-anchored the scope's posteriors against the current
		// parameters (and, on a vote-refreshing pass, the just-published
		// votes): units whose whole reach was covered start accumulating
		// drift from zero again.
		em.SettleScopes(sc)
		// A partial iteration hands the global M-steps exactly the scope's
		// triple lists — the triples whose E-step outputs changed — so the
		// incremental aggregates update in O(scope); a full pass (nil)
		// re-aggregates the corpus.
		var dirtyTris [][]int
		if !sc.AllFull() {
			dirtyTris = passTris
		}
		em.MStepSources(cProb, valueProb, dirtyTris)
		em.MStepExtractors(cProb, dirtyTris)

		// Warm refreshes start from settled parameters, so the prior
		// refinement of Eq 26 applies from the first iteration; cold runs
		// follow the paper's UpdatePriorFromIter schedule. The prior's own
		// movement joins the convergence delta, exactly as in core.Run —
		// without it, a loose Tol declares convergence while Eq 26 is still
		// reshaping the posterior landscape, and the next warm refresh
		// starts with a large correction instead of a settled fixed point.
		priorDelta := 0.0
		if copt.UpdatePrior && (warm || iter+1 >= copt.UpdatePriorFromIter) {
			lo := em.PriorLogOdds()
			if !sc.AllFull() {
				// Only the scope's priors can move, so snapshot and diff
				// exactly those entries instead of copying the corpus.
				for _, tl := range passTris {
					for _, ti := range tl {
						prevLO[ti] = lo[ti]
					}
				}
				e.updatePrior(em, passTris, valueProb)
				for _, tl := range passTris {
					priorDelta = core.MaxDeltaLogisticSubset(prevLO, lo, tl, priorDelta)
				}
			} else {
				copy(prevLO, lo)
				e.updatePrior(em, passTris, valueProb)
				priorDelta = core.MaxDeltaLogistic(prevLO, lo)
			}
		}

		// Per-unit drift accounting replaces the old all-or-nothing
		// escalation: each source charges its own accuracy movement against
		// the items that actually read it (extractor movement is charged by
		// the ledger when votes republish), and the next iteration's E-step
		// widens to exactly the sub-shard reach of the units whose
		// accumulated charge crossed Tol. Sub-Tol movement keeps the E-step
		// on the ingest footprint — and, because the ledger persists across
		// refreshes, such residue keeps accumulating instead of resetting,
		// so many small refreshes cannot compound into an unbounded lag
		// between cached posteriors and the published parameters. (An
		// escalated pass's Eq 26 refinement can still move clean rows'
		// priors by the settling response to a sub-Tol parameter shift;
		// their cached posteriors lag that one step until drift next crosses
		// Tol — the same Tol-bounded staleness this contract has always
		// accepted.)
		em.AccumulateSourceDrift(prevA)
		paramDelta := core.MaxDelta(prevA, em.A()) + core.MaxDelta(prevP, em.P()) + core.MaxDelta(prevR, em.R())
		priorSettled := !copt.UpdatePrior || warm || iter+1 >= copt.UpdatePriorFromIter
		if priorSettled && paramDelta+priorDelta < copt.Tol {
			if iter >= copt.MaxIter {
				// No iterations left to settle residual drift: publish
				// converged only if no unit's accumulated drift stands at
				// or above Tol. A converged result with residue would be
				// served indefinitely by the no-pending NoOp shortcut;
				// unconverged, the next Refresh resumes with a full pass
				// and re-anchors everything.
				converged = nextInto(nsc) == 0
				break
			}
			// Parameters and priors are at a fixed point, but a unit whose
			// accumulated drift crossed Tol on this very iteration would be
			// published above the staleness contract (its rows' cached
			// posteriors would lag by the sub-Tol entry residue plus this
			// iteration's step) and a following no-pending NoOp refresh
			// would keep serving them. Settle such units before declaring
			// convergence; with none, the published state is strictly
			// within contract.
			if nextInto(nsc) == 0 {
				converged = true
				break
			}
			escalations++
			noteTouched(nsc)
			sc, nsc = nsc, sc
			continue
		}
		if iter < copt.MaxIter {
			// The final iteration computes no successor scope: it would
			// never run, and counting it would overstate the touched-shard
			// and escalation stats.
			if nextInto(nsc) > 0 {
				escalations++
			}
			noteTouched(nsc)
			sc, nsc = nsc, sc
		}
	}
	// Iterations counts the EM iterations that actually executed — k when
	// convergence was detected at iteration k, MaxIter when the loop
	// exhausted (the clamp undoes the final loop increment); core.Run
	// reports the identical quantity.
	if iter > copt.MaxIter {
		iter = copt.MaxIter
	}

	touchedCount, partialCount := 0, 0
	for si, hit := range touched {
		if hit {
			touchedCount++
			if !touchedWhole[si] {
				partialCount++
			}
		}
	}

	// Copy detection runs against exactly the posteriors this generation
	// publishes: fold the touched shards' statistic deltas into the tracker
	// (the untouched shards' evidence is bit-identical to the previous
	// publication, so their cached counts still hold), then score. Under
	// FullRecompile the batch detector recounts the corpus instead — the
	// bit-exact oracle for the tracker path.
	var copyDeps []copydetect.Dependence
	if e.opt.CopyDetect {
		ev := copydetect.Evidence{
			ValueProb: func(d, v int) float64 {
				vs := snap.ItemValues.At(d)
				if k := sort.SearchInts(vs, v); k < len(vs) && vs[k] == v {
					return valueProb[d][k]
				}
				return 0
			},
			Accuracy: func(w int) float64 { return em.A()[w] },
			Provides: func(ti int) bool { return cProb[ti] >= 0.5 },
		}
		if e.opt.FullRecompile {
			copyDeps, err = copydetect.Detect(snap, ev, e.opt.Copy)
			if err != nil {
				return nil, err
			}
		} else {
			if e.tracker == nil {
				if e.tracker, err = copydetect.NewTracker(e.opt.Copy, len(shards)); err != nil {
					return nil, err
				}
			}
			dirtyIdx := make([]int, 0, touchedCount)
			for si, hit := range touched {
				if hit {
					dirtyIdx = append(dirtyIdx, si)
				}
			}
			e.tracker.Update(snap, ev, shards, dirtyIdx)
			copyDeps = e.tracker.Dependencies(ev.Accuracy)
		}
		if e.opt.CopyDiscount {
			// Feed the dependencies back as Stage II vote discounts. The
			// ledger charges each source's weight movement to its shards, and
			// a movement of ≥ Tol anywhere revokes convergence: the published
			// posteriors predate the new weights, so the NoOp shortcut must
			// not freeze them — the next Refresh re-estimates the charged
			// shards under the updated discounts until the feedback settles.
			em.SetSourceVoteWeights(copyWeights(len(snap.Sources), copyDeps, em.A(), e.opt.Copy.CopyRate))
			if converged {
				// Probe with an empty scope: any mark means a discount moved
				// some unit's drift past Tol.
				nsc.Reset(nShards, nItems)
				if em.MarkStale(copt.Tol, nsc) > 0 {
					converged = false
				}
			}
		}
	}

	// The fusion store refreshes off the same record feed but owns its
	// provenance-granularity snapshot chain and drift ledger — it reads
	// nothing from the multi-layer state, so its output is exactly what the
	// standalone streaming store would publish for this corpus.
	var fusRes *fusion.Result
	var fusSnap *triple.Snapshot
	fusedItems, fusIters := 0, 0
	if e.opt.Fusion {
		if e.fus == nil {
			fopt := e.opt.Fuse
			if fopt.Workers == 0 {
				fopt.Workers = e.workers()
			}
			if e.fus, err = fusion.NewIncremental(fopt, triple.CompileOptions{}); err != nil {
				return nil, err
			}
		}
		if fusRes, err = e.fus.Refresh(records, pending); err != nil {
			return nil, err
		}
		fusSnap = e.fus.Snapshot()
		fusedItems = e.fus.FusedLast()
		fusIters = fusRes.Iterations
	}
	// Publish the new generation by copy-on-write against the previous one:
	// only the touched shards' posterior chunks are copied out of the
	// working arrays; everything else is shared. The Extend path is what
	// guarantees the share is sound — the previous generation was built on
	// the same snapshot chain, so an untouched shard's working values are
	// bit-identical to its published chunk. A recompiled refresh (cold or
	// FullRecompile) builds every chunk, which also re-anchors the
	// incrementally maintained ExpectedTriples sums.
	var prevInf *core.Result
	if prevLast := e.last.Load(); extended && prevLast != nil {
		prevInf = prevLast.Inference
	}
	aggDelta, aggFull := em.AggStepCounts()
	res := &Result{
		Snapshot:         snap,
		Inference:        em.BuildResultFrom(prevInf, shards, touched, cProb, valueProb, restMass, coveredItem, iter, converged),
		Warm:             warm,
		Extended:         extended,
		FirstPassShards:  firstPass,
		TotalShards:      len(shards),
		TouchedShards:    touchedCount,
		SettledShards:    len(shards) - touchedCount,
		PartialShards:    partialCount,
		Escalations:      escalations,
		AggDeltaSteps:    aggDelta - aggDelta0,
		AggFullSteps:     aggFull - aggFull0,
		CopyDeps:         copyDeps,
		CopyPairs:        len(copyDeps),
		Fusion:           fusRes,
		FusionSnap:       fusSnap,
		FusedItems:       fusedItems,
		FusionIterations: fusIters,
	}

	// Publish and persist for the next warm start. The inclusion masks are
	// cloned because the next NewEMFrom replaces the EM's own slices while
	// the dirty-shard escalation check needs this generation's. Pending
	// records that arrived while estimating stay queued for the next
	// Refresh.
	e.scope, e.scopeNext = sc, nsc
	e.mu.Lock()
	e.snap = snap
	e.seed = nil
	e.shards = shards
	e.em = em
	e.cProb, e.valueProb, e.restMass, e.coveredItem = cProb, valueProb, restMass, coveredItem
	e.srcInc = append([]bool(nil), em.SourceIncluded()...)
	e.extInc = append([]bool(nil), em.ExtractorIncluded()...)
	e.lastTouched = touched
	e.pending = append(e.pending[:0:0], e.pending[nPending:]...)
	e.last.Store(res)
	e.mu.Unlock()
	return res, nil
}

// materializeScope resolves the compiled scope into per-entry item and
// triple index lists: a wholly-stale shard aliases its shard view's slices,
// a partially-stale shard gathers its marked ranges' items and those items'
// candidate triples into persistent backing buffers. Gather order is
// deterministic — entries ascend by shard, ranges by position, items within
// a range by dense id, TriplesOfItem ascending — so the fast path and the
// FullRecompile oracle feed identically ordered index lists to the E-step,
// the M-step deltas and the prior diff. The returned slices are valid until
// the next call.
func (e *Engine) materializeScope(snap *triple.Snapshot, shards []triple.Shard, sc *core.ScopeSet) (items, tris [][]int) {
	n := sc.Len()
	if cap(e.passItems) < n {
		e.passItems = make([][]int, n)
		e.passTris = make([][]int, n)
		e.passEnds = make([][2]int, n)
	}
	items, tris = e.passItems[:n], e.passTris[:n]
	ends := e.passEnds[:n]
	itemBuf, triBuf := e.passItemBuf[:0], e.passTriBuf[:0]
	for i := 0; i < n; i++ {
		si, full, ranges := sc.At(i)
		if !full {
			sh := &shards[si]
			for _, r := range ranges {
				span := sh.ItemSpan(r)
				itemBuf = append(itemBuf, span...)
				for _, d := range span {
					triBuf = append(triBuf, snap.TriplesOfItem.At(d)...)
				}
			}
		}
		ends[i] = [2]int{len(itemBuf), len(triBuf)}
	}
	pi, pt := 0, 0
	for i := 0; i < n; i++ {
		si, full, _ := sc.At(i)
		if full {
			items[i], tris[i] = shards[si].Items, shards[si].Triples
		} else {
			items[i], tris[i] = itemBuf[pi:ends[i][0]], triBuf[pt:ends[i][1]]
		}
		pi, pt = ends[i][0], ends[i][1]
	}
	e.passItemBuf, e.passTriBuf = itemBuf, triBuf
	return items, tris
}

// eStep runs Stages I+II for the given per-scope-entry index lists, one pool
// task per entry. Stage II of an item reads only the Stage I outputs of the
// item's own candidate triples (which the same entry's triple list covers),
// so fusing the two stages per entry is equivalent to the monolithic
// two-pass order. When the scope is smaller than the pool, the leftover
// workers parallelise within each entry instead of idling. An empty entry
// (a wholly-stale shard that owns nothing) is skipped — the subset APIs
// read nil as "everything".
func (e *Engine) eStep(em *core.EM, items, tris [][]int, cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool) {
	inner := e.innerWorkers(len(items))
	parallel.ForEach(len(items), e.workers(), func(i int) {
		if len(tris[i]) > 0 {
			em.EStepTriples(cProb, tris[i], inner)
		}
		if len(items[i]) > 0 {
			em.EStepItems(cProb, valueProb, restMass, coveredItem, items[i], inner)
		}
	})
}

// updatePrior refreshes the Eq 26 prior for the scope's triples. Clean rows
// keep the prior derived from their unchanged value posteriors.
func (e *Engine) updatePrior(em *core.EM, tris [][]int, valueProb [][]float64) {
	inner := e.innerWorkers(len(tris))
	parallel.ForEach(len(tris), e.workers(), func(i int) {
		if len(tris[i]) == 0 {
			return
		}
		em.UpdatePrior(valueProb, tris[i], inner)
	})
}

// ensureFloats resizes a persistent scratch buffer without retaining old
// content guarantees — callers fully overwrite what they read. Growth is
// amortized: the tables these buffers track grow by a few entries per warm
// refresh, and an exact-size reallocation would copy O(corpus) bytes each
// time.
func ensureFloats(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// workers resolves the effective worker bound: Options.Workers when set,
// else Core.Workers (0 = all CPUs, resolved downstream).
func (e *Engine) workers() int {
	if e.opt.Workers != 0 {
		return e.opt.Workers
	}
	return e.opt.Core.Workers
}

// innerWorkers splits the pool between across-shard and within-shard
// parallelism: nTasks concurrent shard tasks leave workers/nTasks workers
// each for their inner loops.
func (e *Engine) innerWorkers(nTasks int) int {
	if nTasks == 0 {
		return 1
	}
	workers := e.workers()
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if nTasks >= workers {
		return 1
	}
	return (workers + nTasks - 1) / nTasks
}

// extendPosteriors grows the engine-owned posterior arrays in place for an
// extended snapshot: new candidate triples start from the Alpha prior, new
// items from empty rows (the first E-step fills them — every new item is in
// the dirty set by construction), and old items whose candidate-value list
// gained an entry have their row remapped to the shifted slots. Everything
// already in place carries over untouched, so the work is proportional to
// the ingest.
func (e *Engine) extendPosteriors(snap, prev *triple.Snapshot, alpha float64) {
	if snap == prev {
		return // resume on the identical snapshot
	}
	for ti := len(prev.Triples); ti < len(snap.Triples); ti++ {
		e.cProb = append(e.cProb, alpha)
	}

	nOldItems := len(prev.Items)
	var remapped map[int]bool
	for ti := len(prev.Triples); ti < len(snap.Triples); ti++ {
		d := snap.Triples[ti].D
		if d >= nOldItems {
			continue
		}
		newVs, oldVs := snap.ItemValues.At(d), prev.ItemValues.At(d)
		if len(newVs) == len(oldVs) {
			continue
		}
		if remapped == nil {
			remapped = make(map[int]bool)
		}
		if remapped[d] {
			continue
		}
		remapped[d] = true
		oldRow := e.valueProb[d]
		row := make([]float64, len(newVs))
		j := 0
		for k, v := range newVs {
			for j < len(oldVs) && oldVs[j] < v {
				j++
			}
			if j < len(oldVs) && oldVs[j] == v && j < len(oldRow) {
				row[k] = oldRow[j]
			}
		}
		e.valueProb[d] = row
	}
	for d := nOldItems; d < len(snap.Items); d++ {
		e.valueProb = append(e.valueProb, nil)
		e.restMass = append(e.restMass, 0)
		e.coveredItem = append(e.coveredItem, false)
	}
}

// carryOver seeds a freshly built EM state from the previous refresh on the
// FullRecompile path: parameters by stable dense id, per-triple prior and
// correctness posterior by (w,d,v) identity, and per-item value posteriors
// by value id. (The default path needs none of this — core.NewEMFrom carries
// the state itself.)
func (e *Engine) carryOver(em *core.EM, snap, prev *triple.Snapshot, cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool) {
	prevEM := e.em
	em.CarryParamsFrom(prevEM)
	em.CarryVotesFrom(prevEM)
	em.CarryStalenessFrom(prevEM)
	em.CarrySourceVoteWeightsFrom(prevEM)

	lo := em.PriorLogOdds()
	clo := em.CLogOdds()
	oldLO := prevEM.PriorLogOdds()
	oldCLO := prevEM.CLogOdds()
	oldTriple := make(map[triple.TripleRef]int, len(prev.Triples))
	for ti, tr := range prev.Triples {
		oldTriple[tr] = ti
	}
	for ti, tr := range snap.Triples {
		if oti, ok := oldTriple[tr]; ok {
			lo[ti] = oldLO[oti]
			cProb[ti] = e.cProb[oti]
			clo[ti] = oldCLO[oti]
		} else {
			cProb[ti] = e.opt.Core.Alpha
		}
	}

	for d := range valueProb {
		newVs := snap.ItemValues.At(d)
		row := make([]float64, len(newVs))
		if d < len(prev.Items) {
			oldVs := prev.ItemValues.At(d)
			oldRow := e.valueProb[d]
			j := 0
			for k, v := range newVs {
				for j < len(oldVs) && oldVs[j] < v {
					j++
				}
				if j < len(oldVs) && oldVs[j] == v && k < len(row) && j < len(oldRow) {
					row[k] = oldRow[j]
				}
			}
			restMass[d] = e.restMass[d]
			coveredItem[d] = e.coveredItem[d]
		}
		valueProb[d] = row
	}
}

// seedFootprint marks the items the first warm iteration must re-estimate
// into base: every item sharing a (source, predicate) cell with a pending
// record — new items, new candidate values, raised confidences and changed
// absence masses all live in those cells — resolved through the ledger's
// cell index in O(footprint), never by scanning the corpus. Structural
// changes with global reach (a support threshold flipping a unit's
// inclusion, or new extractors under ScopeAllExtractors, whose absence mass
// is corpus-wide) escalate to all shards. A pending record that fails to
// resolve against the extended snapshot is an invariant violation — the
// ingest/extension contract guarantees every pending record compiled — and
// is surfaced as an error rather than silently absorbed as a full pass.
func (e *Engine) seedFootprint(em *core.EM, snap, prev *triple.Snapshot, pending []triple.Record, base *core.ScopeSet) error {
	if inclusionChanged(e.srcInc, em.SourceIncluded()) || inclusionChanged(e.extInc, em.ExtractorIncluded()) {
		base.MarkAllFull()
		return nil
	}
	if e.opt.Core.Scope == core.ScopeAllExtractors && len(snap.Extractors) > len(prev.Extractors) {
		base.MarkAllFull()
		return nil
	}
	for i, rec := range pending {
		w := snap.SourceID(e.opt.SourceKey(rec))
		d := snap.ItemID(rec.Subject, rec.Predicate)
		if w < 0 || d < 0 || !em.MarkCellItems(w, snap.PredOfItem[d], base) {
			return fmt.Errorf("engine: pending record %d (source %q, item %q/%q) did not compile into the refreshed snapshot; the append-only extension invariant is broken",
				i, e.opt.SourceKey(rec), rec.Subject, rec.Predicate)
		}
	}
	return nil
}

func inclusionChanged(old, cur []bool) bool {
	for i := range old {
		if i < len(cur) && old[i] != cur[i] {
			return true
		}
	}
	return false
}

// copyWeights derives the Stage II vote discounts from the dependence list.
// ACCU-COPY's orientation heuristic: within a dependent pair the member with
// the lower estimated accuracy is the likely copier (ties break to the
// higher dense id — the later-arriving source) and keeps only the
// independent share 1 − copyRate·p(dependent) of its vote, compounding over
// all of its dependencies. Sources in no dependence keep weight 1.
func copyWeights(nSrc int, deps []copydetect.Dependence, a []float64, copyRate float64) []float64 {
	w := make([]float64, nSrc)
	for i := range w {
		w[i] = 1
	}
	for _, dep := range deps {
		copier := dep.B
		if a[dep.A] < a[dep.B] {
			copier = dep.A
		}
		w[copier] *= 1 - copyRate*dep.Posterior
	}
	return w
}
