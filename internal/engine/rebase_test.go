package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kbt/internal/copydetect"
	"kbt/internal/fusion"
	"kbt/internal/triple"
)

// assertGenerationsBitIdentical compares two published generations: the
// snapshot row by row, every parameter and posterior to the bit, the
// refresh accounting, and the copy and fusion layers.
func assertGenerationsBitIdentical(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	assertSnapshotsBitIdentical(t, tag, got.Snapshot, want.Snapshot)
	assertResultsBitIdentical(t, tag, got.Inference, want.Inference)
	g, w := got.Inference, want.Inference
	if d := maxAbsDiff(expOf(g), expOf(w)); d != 0 {
		t.Fatalf("%s: ExpectedTriples diverges bitwise: max |Δ| = %g", tag, d)
	}
	if !reflect.DeepEqual(g.SourceIncluded, w.SourceIncluded) || !reflect.DeepEqual(g.ExtractorIncluded, w.ExtractorIncluded) {
		t.Fatalf("%s: inclusion masks diverge", tag)
	}
	type counters struct {
		Warm, Extended, NoOp                                       bool
		FirstPass, Total, Touched, Settled, Partial, Escalations   int
		AggDelta, AggFull, CopyPairs, FusedItems, FusionIterations int
	}
	count := func(r *Result) counters {
		return counters{r.Warm, r.Extended, r.NoOp, r.FirstPassShards, r.TotalShards, r.TouchedShards,
			r.SettledShards, r.PartialShards, r.Escalations, r.AggDeltaSteps, r.AggFullSteps,
			r.CopyPairs, r.FusedItems, r.FusionIterations}
	}
	if cg, cw := count(got), count(want); cg != cw {
		t.Fatalf("%s: refresh accounting diverges\n got  %+v\n want %+v", tag, cg, cw)
	}
	if !reflect.DeepEqual(got.CopyDeps, want.CopyDeps) {
		t.Fatalf("%s: copy dependencies diverge\n got  %+v\n want %+v", tag, got.CopyDeps, want.CopyDeps)
	}
	if !reflect.DeepEqual(got.Fusion, want.Fusion) {
		t.Fatalf("%s: fusion generations diverge", tag)
	}
	if (got.FusionSnap == nil) != (want.FusionSnap == nil) {
		t.Fatalf("%s: fusion snapshot present %v, want %v", tag, got.FusionSnap != nil, want.FusionSnap != nil)
	}
	if got.FusionSnap != nil {
		assertSnapshotsBitIdentical(t, tag+" (fusion)", got.FusionSnap, want.FusionSnap)
	}
}

// TestFuzzRebaseMatchesColdCompile re-anchors engines at random points of
// the fuzz suite's random streams, the way compaction does, and drives each
// rebased engine and an engine compiled cold from the same records through
// the same further batches. Every generation of the two must be
// bit-identical: the rebased lineage extends a snapshot that was itself
// grown by Extend (its index chunks forked, intern tables layered, rows
// carrying spare capacity), the cold one a freshly compiled snapshot, so any
// behaviour depending on chunk ownership, intern layering or row capacity
// shows up here. A rebased engine is itself rebased again later in the
// stream.
func TestFuzzRebaseMatchesColdCompile(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		rng := rand.New(rand.NewSource(int64(9100 + trial)))
		opt := DefaultOptions()
		opt.Shards = []int{1, 3, 8}[trial%3]
		opt.Core.MaxIter = rng.Intn(5) + 3
		opt.Core.MinSourceSupport = rng.Intn(3) + 1
		opt.Core.MinExtractorSupport = rng.Intn(3) + 1
		opt.Core.ReaggregateEvery = rng.Intn(6) + 2
		if trial%4 < 2 {
			opt.Core.Tol = 1e-4
		}
		if trial%2 == 1 {
			opt.CopyDetect = true
			opt.Copy = copydetect.DefaultOptions()
			opt.Copy.Threshold = 0
			opt.Fusion = true
			opt.Fuse = fusion.DefaultOptions()
			opt.Fuse.MaxIter = rng.Intn(4) + 2
		}

		live := New(opt)
		var cold *Engine // compiled cold at the latest rebase; nil before one
		rebases := 0
		recs := randomStream(rng, rng.Intn(200)+80)
		start, step := 0, 0
		for start < len(recs) {
			var batch []triple.Record
			switch rng.Intn(5) {
			case 0:
				// Resume: nothing new, often a NoOp.
			case 1:
				// Re-ingest absorbed records (duplicate cells).
				if start > 0 {
					k := min(rng.Intn(3)+1, start)
					batch = recs[start-k : start]
				}
			default:
				n := min(rng.Intn(12)+1, len(recs)-start)
				batch = recs[start : start+n]
				start += n
			}
			for _, e := range []*Engine{live, cold} {
				if e == nil {
					continue
				}
				if err := e.Ingest(batch...); err != nil {
					t.Fatal(err)
				}
			}
			if live.Len() == 0 {
				continue
			}
			got, err := live.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("trial %d step %d (shards=%d layer6=%v, %d rebases)", trial, step, opt.Shards, opt.Fusion, rebases)
			step++
			if cold != nil {
				want, err := cold.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				assertGenerationsBitIdentical(t, tag, got, want)
			}
			if rng.Intn(4) != 0 {
				continue
			}
			// Re-anchor: the rebased engine's first refresh is cold on the
			// live snapshot; the reference compiles the same records.
			rebased, err := live.Rebase()
			if err != nil {
				t.Fatal(err)
			}
			cold = New(opt)
			if err := cold.Ingest(live.Records()...); err != nil {
				t.Fatal(err)
			}
			donorSnap := got.Snapshot
			got, err = rebased.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if got.Snapshot != donorSnap {
				t.Fatalf("%s: rebased refresh compiled a new snapshot instead of reusing the live one", tag)
			}
			assertGenerationsBitIdentical(t, tag+" rebase", got, want)
			live = rebased
			rebases++
		}
	}
}

// TestRebaseGuards pins the Rebase contract at its edges: it refuses an
// engine with pending records, the two engines never see each other's
// ingests, records ingested between the rebase and the first refresh are
// included, and under FullRecompile the rebased engine compiles its own
// snapshot.
func TestRebaseGuards(t *testing.T) {
	recs := randomStream(rand.New(rand.NewSource(5)), 120)
	opt := DefaultOptions()
	opt.Shards = 3

	// Record-by-record ingest leaves spare capacity behind the donor's
	// records, where an uncapped shared slice would let the two engines'
	// appends collide.
	donor := New(opt)
	for i := range 80 {
		if err := donor.Ingest(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := donor.Rebase(); err == nil {
		t.Fatal("Rebase with pending records succeeded")
	}
	if _, err := donor.Refresh(); err != nil {
		t.Fatal(err)
	}
	rebased, err := donor.Rebase()
	if err != nil {
		t.Fatal(err)
	}

	// Disjoint record streams after the rebase: each engine's ingest lands
	// in its own storage, even though both started from one slice.
	for i := range 20 {
		if err := rebased.Ingest(recs[80+i]); err != nil {
			t.Fatal(err)
		}
		if i < 10 {
			if err := donor.Ingest(recs[100+i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if donor.Len() != 90 || rebased.Len() != 100 {
		t.Fatalf("Len donor %d rebased %d, want 90 and 100", donor.Len(), rebased.Len())
	}
	if got := rebased.Records(); !reflect.DeepEqual(got, recs[:100]) {
		t.Fatal("rebased engine's records were overwritten by the donor's ingest")
	}
	want := append(append([]triple.Record(nil), recs[:80]...), recs[100:110]...)
	if got := donor.Records(); !reflect.DeepEqual(got, want) {
		t.Fatal("donor's records were changed by the rebased engine's ingest")
	}

	// The first refresh covers the records ingested after the rebase too.
	cold := New(opt)
	if err := cold.Ingest(recs[:100]...); err != nil {
		t.Fatal(err)
	}
	got, err := rebased.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cold.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	assertGenerationsBitIdentical(t, "ingest after rebase", got, ref)

	// The oracle never inherits a snapshot it did not compile.
	oopt := opt
	oopt.FullRecompile = true
	oracle := New(oopt)
	if err := oracle.Ingest(recs[:80]...); err != nil {
		t.Fatal(err)
	}
	first, err := oracle.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	orb, err := oracle.Rebase()
	if err != nil {
		t.Fatal(err)
	}
	again, err := orb.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if again.Snapshot == first.Snapshot {
		t.Fatal("FullRecompile rebase reused the donor's snapshot instead of compiling")
	}
	assertGenerationsBitIdentical(t, "FullRecompile rebase", again, first)
}

// TestRebaseConcurrentWithDonorReaders: readers walk the donor's last
// generation — its snapshot tables, index rows and posteriors — while the
// rebased engine refreshes cold on that snapshot and then extends it (its
// first Extend takes the tail claim). The donor generation must read the
// same values throughout; run under -race this also proves the extension
// never writes what those readers read.
func TestRebaseConcurrentWithDonorReaders(t *testing.T) {
	recs := randomStream(rand.New(rand.NewSource(11)), 400)
	opt := DefaultOptions()
	opt.Shards = 4
	opt.CopyDetect = true
	opt.Fusion = true
	donor := New(opt)
	if err := donor.Ingest(recs[:200]...); err != nil {
		t.Fatal(err)
	}
	gen, err := donor.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	walk := func() (sum float64, cells int) {
		s, inf := gen.Snapshot, gen.Inference
		for d := range len(s.Items) {
			for _, v := range s.ItemValues.At(d) {
				cells += v
			}
			for _, ti := range s.TriplesOfItem.At(d) {
				cells += ti + s.Triples[ti].W
				sum += inf.CProbAt(ti)
			}
			for _, p := range inf.ValueRow(d) {
				sum += p
			}
		}
		for ti := range len(s.Triples) {
			cells += len(s.ByTriple.At(ti))
		}
		for w := range len(s.Sources) {
			cells += len(s.TriplesOfSource.At(w))
			sum += inf.AAt(w)
		}
		for _, o := range s.Obs {
			sum += o.Conf
		}
		return sum, cells
	}
	wantSum, wantCells := walk()

	rebased, err := donor.Rebase()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if sum, cells := walk(); sum != wantSum || cells != wantCells {
					errs <- fmt.Sprintf("donor generation changed under a reader: sum %v cells %d, want %v and %d", sum, cells, wantSum, wantCells)
					return
				}
			}
		}()
	}
	if _, err := rebased.Refresh(); err != nil {
		t.Fatal(err)
	}
	for at := 200; at < len(recs); at += 25 {
		if err := rebased.Ingest(recs[at : at+25]...); err != nil {
			t.Fatal(err)
		}
		if _, err := rebased.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if sum, cells := walk(); sum != wantSum || cells != wantCells {
		t.Fatal("donor generation changed after the rebased engine extended its snapshot")
	}
}
