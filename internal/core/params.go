package core

import (
	"sync/atomic"

	"kbt/internal/cow"
)

// This file implements copy-on-write per-unit parameter publication. The
// source and extractor parameter vectors (A, P, R, Q) and the per-source
// expected-triple sums are published as cow.Vec chunks shared between
// generations, so a refresh that re-estimated a handful of units copies a
// handful of chunks instead of O(units) — at fine granularities the unit
// space is corpus-sized (per-page sources, per-pattern extractors).
//
// The working arrays (state.a/p/r/q) stay flat — the M-step hot loops index
// them densely. Every write goes through a set* helper that compares before
// storing: only a value that actually changed marks its chunk dirty. The
// comparison is exact float equality, which is what makes sharing effective —
// a delta M-step re-derives a source's accuracy from unchanged sufficient
// statistics bit-identically, so untouched regions of the unit space stay
// clean across arbitrarily many refreshes. BuildResultFrom then shares every
// clean, length-stable chunk with the previous generation by pointer and
// clears the marks, making the new generation the baseline.
//
// Marks are chunk-granular uint32s (one per cow chunk) written with atomic
// stores: the M-steps derive different units concurrently, and two units of
// one chunk may mark it from different goroutines. Readers (publication,
// mark clearing) run after the worker pools have joined, so plain reads are
// ordered.

// buildUnitVec publishes work copy-on-write against prev, the generation the
// dirty marks were cleared against: chunks with a clear mark are shared, the
// rest copied whole (cow.Update).
func buildUnitVec(prev cow.Vec[float64], work []float64, dirty []uint32) cow.Vec[float64] {
	return cow.Update(prev, work, func(ci int) bool { return ci < len(dirty) && dirty[ci] == 0 })
}

// markUnit records that unit i's value changed since the last publication.
// The load-before-store keeps an already-dirty chunk's cache line clean under
// repeated marking from the derive loops.
func markUnit(dirty []uint32, i int) {
	ci := cow.ChunkOf(i)
	if atomic.LoadUint32(&dirty[ci]) == 0 {
		atomic.StoreUint32(&dirty[ci], 1)
	}
}

// inheritMarks seeds dst's dirty marks after CarryParamsFrom copied a prevN
// prefix of values into an n-unit table: a chunk wholly inside the copied
// prefix is exactly as dirty as the donor's (the values are bit-equal, so the
// donor's relation to its last publication transfers), everything else —
// boundary growth, new units — is dirty.
func inheritMarks(dst, src []uint32, prevN, n int) {
	for ci := range dst {
		if end := min((ci+1)*cow.ChunkSize, n); end <= prevN && ci < len(src) {
			dst[ci] = src[ci]
		} else {
			dst[ci] = 1
		}
	}
}
