package kbt

import (
	"fmt"
	"testing"
)

// BenchmarkDurableRefreshWarm is BenchmarkRefreshWarm with the WAL in front:
// the acceptance bar is that the durable wrapper costs ≤5% over the plain
// engine, since Refresh only appends a 1-byte marker (no fsync — it rides
// the next group commit) and Ingest's fsync sits outside the timed region
// exactly as the plain benchmark's ingest does inside it. NoSync keeps the
// comparison about the wrapper, not the device's fsync latency.
func BenchmarkDurableRefreshWarm(b *testing.B) {
	const corpusN = 10_000
	base := servingCorpus(0, corpusN)
	for _, ingestN := range []int{10, 100} {
		b.Run(fmt.Sprintf("corpus=%d/ingest=%d", corpusN, ingestN), func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), refreshBenchOptions(), DurableOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if err := d.Ingest(base...); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Refresh(); err != nil {
				b.Fatal(err)
			}
			next := corpusN
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := servingCorpus(next, ingestN)
				next += ingestN
				b.StartTimer()
				if err := d.Ingest(batch...); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint is the gate for incremental checkpoints and for
// compaction: a 100k-record corpus with a small per-iteration delta,
// checkpointed either incrementally (delta append on the chain, live engine
// untouched) or compacting every time (CompactAfterBatches: 1 — the
// O(corpus) shape every checkpoint had before chains: the full base write
// plus the re-anchor, a cold EM over the live compiled snapshot). The
// acceptance bar is incremental ≥5x faster than cold.
func BenchmarkCheckpoint(b *testing.B) {
	const corpusN = 100_000
	const deltaN = 100
	base := servingCorpus(0, corpusN)
	for _, shape := range []struct {
		name         string
		compactAfter int
	}{
		{"incremental", -1},
		{"cold", 1},
	} {
		b.Run(fmt.Sprintf("corpus=%d/delta=%d/%s", corpusN, deltaN, shape.name), func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), refreshBenchOptions(),
				DurableOptions{NoSync: true, CompactAfterBatches: shape.compactAfter})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for at := 0; at < corpusN; at += 10_000 {
				if err := d.Ingest(base[at : at+10_000]...); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := d.Refresh(); err != nil {
				b.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			next := corpusN
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := servingCorpus(next, deltaN)
				next += deltaN
				if err := d.Ingest(batch...); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Refresh(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := d.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures OpenDurable in four shapes: checkpointed (chain
// replay, no tail) and WAL-only (full replay through the ingest/refresh
// paths) on a 100k corpus, plus a refresh-heavy log — many consecutive
// refresh markers per batch — recovered with marker coalescing on and off.
// Two mechanisms bound the refresh-heavy shapes to the distinct-ingest-batch
// count: the recovery-level coalescing skip, and beneath it the engine's own
// no-op shortcut (nothing pending + converged serves the cached generation),
// which is why the two shapes run neck and neck today. Gating both keeps
// either mechanism from silently regressing into per-marker EM replay.
func BenchmarkRecovery(b *testing.B) {
	build := func(b *testing.B, corpusN, chunk, markers int, checkpoint bool) string {
		b.Helper()
		dir := b.TempDir()
		d, err := OpenDurable(dir, refreshBenchOptions(), DurableOptions{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		base := servingCorpus(0, corpusN)
		for at := 0; at < corpusN; at += chunk {
			if err := d.Ingest(base[at : at+chunk]...); err != nil {
				b.Fatal(err)
			}
			for m := 0; m < markers; m++ {
				if _, err := d.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := d.Refresh(); err != nil {
			b.Fatal(err)
		}
		if checkpoint {
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, shape := range []struct {
		name            string
		corpusN, chunk  int
		markers         int
		checkpoint      bool
		disableCoalesce bool
	}{
		{"corpus=100000/checkpointed", 100_000, 10_000, 0, true, false},
		{"corpus=100000/wal-only", 100_000, 10_000, 0, false, false},
		{"corpus=10000/markers=20/coalesced", 10_000, 500, 20, false, false},
		{"corpus=10000/markers=20/per-marker", 10_000, 500, 20, false, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			dir := build(b, shape.corpusN, shape.chunk, shape.markers, shape.checkpoint)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := OpenDurable(dir, refreshBenchOptions(),
					DurableOptions{NoSync: true, disableCoalesce: shape.disableCoalesce})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := d.Current(); !ok {
					b.Fatal("recovery produced no generation")
				}
				b.StopTimer()
				d.Close()
				b.StartTimer()
			}
		})
	}
}
