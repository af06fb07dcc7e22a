package copydetect

import (
	"math/rand"
	"testing"

	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// benchWorld builds the serving-shaped fixture the warm benches run on: a
// 100k-record group-local corpus (the regime where a refresh's evidence
// churn confines to the shards its ingest fed) compiled once, sharded 256
// ways, with randomized value posteriors, Provides mask and accuracies.
func benchWorld(b *testing.B) (*trackerWorld, *rand.Rand) {
	b.Helper()
	const corpusN, nShards = 100_000, 256
	var recs []triple.Record
	for g := 0; len(recs) < corpusN; g++ {
		recs = append(recs, synthetic.GroupLocalCorpus(g, 1)...)
	}
	copt := triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}
	w := &trackerWorld{s: (&triple.Dataset{Records: recs}).Compile(copt)}
	w.shards = w.s.Shards(nShards)
	w.vp = make([][]float64, len(w.s.Items))
	w.cp = make([]float64, len(w.s.Triples))
	w.acc = make([]float64, len(w.s.Sources))
	rng := rand.New(rand.NewSource(7))
	w.reroll(rng, allShardIdx(nShards), true)
	return w, rng
}

// churn moves the evidence of the next window of dirtyN shards (round robin
// over the shard space) and the accuracies of the next window of srcN
// sources — the footprint a warm engine refresh leaves after absorbing a
// ~100-record group-local ingest: its measured first-pass cover is 12–16 of
// 256 shards, and only the handful of sources the ingest actually fed move
// their accuracies (that confinement is the staleness ledger's whole
// point). Within a dirty shard about a quarter of the evidence actually
// lands somewhere new: a refresh re-estimates a dirty shard wholesale, but
// in the settled serving regime most of its posteriors come out where they
// were. Both shapes must nevertheless treat the whole shard as dirty — that
// is the granularity the engine reports.
func (w *trackerWorld) churn(rng *rand.Rand, round, dirtyN, srcN int) []int {
	dirty := make([]int, dirtyN)
	for j := range dirty {
		dirty[j] = (round*dirtyN + j) % len(w.shards)
	}
	for _, si := range dirty {
		sh := w.shards[si]
		for _, d := range sh.Items {
			if rng.Intn(4) > 0 {
				continue
			}
			row := make([]float64, len(w.s.ItemValues.At(d)))
			for k := range row {
				row[k] = rng.Float64()
			}
			w.vp[d] = row
		}
		for _, ti := range sh.Triples {
			if rng.Intn(4) == 0 {
				w.cp[ti] = rng.Float64()
			}
		}
	}
	for j := 0; j < srcN; j++ {
		src := (round*srcN + j) % len(w.acc)
		w.acc[src] = rng.Float64()*0.96 + 0.02
	}
	return dirty
}

// BenchmarkCopyDetectWarm contrasts keeping the dependence list current
// incrementally against recomputing it from scratch, on the steady-state
// serving loop: per iteration the evidence of one warm-ingest footprint
// (12 of 256 shards) churns, and the layer must serve the updated list.
// The incremental shape recounts only the dirty shards' pair statistics and
// rescores only the pairs whose counts, item maps or member accuracies
// moved; the batch-oracle shape is the full O(corpus) Detect the tracker
// replaces. The two lists are deep-equal (TestFuzzTrackerMatchesDetect pins
// it); only the cost curves differ.
func BenchmarkCopyDetectWarm(b *testing.B) {
	const dirtyN, srcN = 12, 24
	b.Run("incremental", func(b *testing.B) {
		w, rng := benchWorld(b)
		tr, err := NewTracker(DefaultOptions(), len(w.shards))
		if err != nil {
			b.Fatal(err)
		}
		tr.Update(w.s, w.evidence(), w.shards, allShardIdx(len(w.shards)))
		tr.Dependencies(w.evidence().Accuracy)
		var pairs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirty := w.churn(rng, i, dirtyN, srcN)
			b.StartTimer()
			tr.Update(w.s, w.evidence(), w.shards, dirty)
			pairs = len(tr.Dependencies(w.evidence().Accuracy))
		}
		b.StopTimer()
		b.ReportMetric(float64(pairs), "copy-pairs")
	})
	b.Run("batch-oracle", func(b *testing.B) {
		w, rng := benchWorld(b)
		var pairs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.churn(rng, i, dirtyN, srcN)
			b.StartTimer()
			deps, err := Detect(w.s, w.evidence(), DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			pairs = len(deps)
		}
		b.StopTimer()
		b.ReportMetric(float64(pairs), "copy-pairs")
	})
}
