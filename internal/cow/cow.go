// Package cow provides Vec, a persistent chunked vector: the one
// copy-on-write primitive behind the snapshot indexes (internal/triple) and
// the published per-unit parameters (internal/core).
//
// A Vec stores its elements in fixed chunks of ChunkSize. Fork makes a new
// version that shares every chunk with its source by pointer; the new
// version copies a chunk the first time it writes into it. Building version
// k+1 from version k therefore costs the chunk headers plus the chunks
// actually touched, not the length of the vector, and any number of versions
// can be read concurrently while the newest one is written.
//
// Ownership rule: a Vec writes in place only to chunks it created or copied
// itself; a version made by Fork, Wrap or Update owns none yet. Fork copies
// only the chunk headers and never mutates its source, so readers of the
// source need no synchronisation with the fork's writer; the source itself
// must not be written again, because its writes would show through the
// chunks it shares. Copying a Vec value aliases it: only Fork makes an
// independent version.
package cow

import (
	"iter"
	"slices"
)

// ChunkSize is the number of elements per chunk: large enough that chunk
// headers are negligible against the elements, small enough that a write to
// one element copies far less than the whole vector.
const ChunkSize = 1 << chunkShift

const chunkShift = 9

// Chunks returns the number of chunks covering n elements.
func Chunks(n int) int { return (n + ChunkSize - 1) >> chunkShift }

// ChunkOf returns the index of the chunk holding element i.
func ChunkOf(i int) int { return i >> chunkShift }

// Vec is a persistent chunked vector. The zero value is an empty vector
// ready to use.
type Vec[T any] struct {
	n      int
	chunks [][]T
	owned  []bool // per chunk: created or copied by this version (absent: no)
}

// Wrap returns a Vec over vals without copying. The caller hands vals over
// and must not write it again; the Vec copies a chunk before writing it.
func Wrap[T any](vals []T) Vec[T] {
	v := Vec[T]{n: len(vals), chunks: make([][]T, Chunks(len(vals)))}
	for ci := range v.chunks {
		lo := ci << chunkShift
		hi := min(lo+ChunkSize, len(vals))
		v.chunks[ci] = vals[lo:hi]
	}
	return v
}

// Len returns the number of elements.
func (v Vec[T]) Len() int { return v.n }

// At returns element i.
func (v Vec[T]) At(i int) T { return v.chunks[i>>chunkShift][i&(ChunkSize-1)] }

// All iterates the elements in index order.
func (v Vec[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		i := 0
		for _, ck := range v.chunks {
			for _, x := range ck {
				if !yield(i, x) {
					return
				}
				i++
			}
		}
	}
}

// Fork returns a new version sharing every chunk with v. v must not be
// written afterwards; the fork copies each chunk on its first write.
func (v Vec[T]) Fork() Vec[T] {
	return Vec[T]{n: v.n, chunks: slices.Clone(v.chunks)}
}

// Set stores x at index i < Len, copying the chunk first if v does not own it.
func (v *Vec[T]) Set(i int, x T) {
	ci := i >> chunkShift
	v.own(ci)
	v.chunks[ci][i&(ChunkSize-1)] = x
}

// Append adds x at index Len.
func (v *Vec[T]) Append(x T) {
	ci := v.n >> chunkShift
	if ci == len(v.chunks) {
		v.chunks = append(v.chunks, nil)
	}
	v.own(ci)
	v.chunks[ci] = append(v.chunks[ci], x)
	v.n++
}

// own makes chunk ci writable in place, copying it unless v created or
// copied it itself.
func (v *Vec[T]) own(ci int) {
	if len(v.owned) < len(v.chunks) {
		v.owned = append(v.owned, make([]bool, len(v.chunks)-len(v.owned))...)
	}
	if !v.owned[ci] {
		v.chunks[ci] = append(make([]T, 0, ChunkSize), v.chunks[ci]...)
		v.owned[ci] = true
	}
}

// Update returns a Vec holding work's values, built against prev, an earlier
// version of the same values: every chunk that clean reports unchanged since
// prev and that prev covers in full is shared with prev, and every other
// chunk is copied from work whole. A chunk whose span grew past prev's is
// copied even when clean. Neither prev nor work is modified; like a forked
// source, prev must not be written again, while the caller may keep writing
// work.
func Update[T any](prev Vec[T], work []T, clean func(ci int) bool) Vec[T] {
	n := len(work)
	v := Vec[T]{n: n, chunks: make([][]T, Chunks(n))}
	for ci := range v.chunks {
		lo := ci << chunkShift
		hi := min(lo+ChunkSize, n)
		if ci < len(prev.chunks) && len(prev.chunks[ci]) == hi-lo && clean(ci) {
			v.chunks[ci] = prev.chunks[ci]
			continue
		}
		v.chunks[ci] = slices.Clone(work[lo:hi])
	}
	return v
}
