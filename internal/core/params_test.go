package core

import (
	"math"
	"slices"
	"testing"

	"kbt/internal/cow"
)

// TestBuildUnitVecSharesCleanChunks pins the dirty-mark contract of
// buildUnitVec. Sharing is observed through values: the test edits the
// working array behind the marks' back, so a chunk that still reads the
// previous generation's value was shared, and one that reads the edit was
// copied. (Pointer-level sharing is pinned in internal/cow.)
func TestBuildUnitVecSharesCleanChunks(t *testing.T) {
	n := 2*cow.ChunkSize + 7
	work := make([]float64, n)
	for i := range work {
		work[i] = float64(i)
	}
	dirty := make([]uint32, cow.Chunks(n))
	base := buildUnitVec(cow.Vec[float64]{}, work, dirty)
	if base.Len() != n || base.At(0) != 0 || base.At(n-1) != float64(n-1) {
		t.Fatalf("base vec wrong: len=%d", base.Len())
	}

	// Unmarked edits: every chunk shared, so none of them shows.
	work[0], work[cow.ChunkSize+1] = -5, -6
	same := buildUnitVec(base, work, dirty)
	if same.At(0) != 0 || same.At(cow.ChunkSize+1) != float64(cow.ChunkSize+1) {
		t.Fatal("clean chunk was copied")
	}

	// One marked chunk: only it is copied.
	work[cow.ChunkSize+3] = -1
	markUnit(dirty, cow.ChunkSize+3)
	next := buildUnitVec(base, work, dirty)
	if next.At(0) != 0 {
		t.Fatal("clean chunk was copied")
	}
	if next.At(cow.ChunkSize+3) != -1 || next.At(cow.ChunkSize+1) != -6 {
		t.Fatal("dirty chunk was shared")
	}
	if base.At(cow.ChunkSize+3) != float64(cow.ChunkSize+3) {
		t.Fatal("copy-on-write leaked into the previous generation")
	}

	// Growth: the boundary chunk is copied even with a clear mark; whole
	// chunks before it stay shared.
	clear(dirty)
	work[2*cow.ChunkSize] = -7
	grown := append(work, 1, 2, 3)
	gv := buildUnitVec(base, grown, dirty)
	if gv.At(0) != 0 || gv.At(cow.ChunkSize+3) != float64(cow.ChunkSize+3) {
		t.Fatal("full chunks not shared across growth")
	}
	if gv.Len() != n+3 || gv.At(2*cow.ChunkSize) != -7 || gv.At(n+2) != 3 {
		t.Fatalf("boundary chunk not extended: len=%d", gv.Len())
	}
}

// TestCowVecClonesOnFirstWrite pins the expected-triple delta fold's use of
// a forked generation (expectedTriples): folding into the fork and growing
// it zero-filled never changes the previous generation.
func TestCowVecClonesOnFirstWrite(t *testing.T) {
	n := cow.ChunkSize + 5
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	prev := cow.Wrap(slices.Clone(vals))

	cw := prev.Fork()
	cw.Set(3, cw.At(3)+0.5)
	cw.Set(4, cw.At(4)-0.25)
	if cw.At(3) != 3.5 || cw.At(4) != 3.75 || prev.At(3) != 3 || prev.At(4) != 4 {
		t.Fatalf("fold wrong: got %v prev %v", cw.At(3), prev.At(3))
	}

	// Growth zero-fills the tail and keeps prev's values and length.
	cw = prev.Fork()
	for cw.Len() < 2*cow.ChunkSize+1 {
		cw.Append(0)
	}
	if cw.At(n) != 0 || cw.At(2*cow.ChunkSize) != 0 {
		t.Fatal("grown entries not zero")
	}
	if cw.At(cow.ChunkSize+2) != float64(cow.ChunkSize+2) || prev.Len() != n {
		t.Fatal("boundary growth lost prev values or leaked into prev")
	}
}

func TestInheritMarks(t *testing.T) {
	prevN := cow.ChunkSize + 10
	n := 2*cow.ChunkSize + 1
	src := []uint32{0, 1}
	dst := make([]uint32, cow.Chunks(n))
	inheritMarks(dst, src, prevN, n)
	if dst[0] != 0 {
		t.Error("fully copied clean chunk should inherit clean")
	}
	if dst[1] != 1 || dst[2] != 1 {
		t.Error("boundary and new chunks must be dirty")
	}
	// Equal sizes: everything inherits, including the short tail chunk.
	dst2 := make([]uint32, 2)
	inheritMarks(dst2, src, prevN, prevN)
	if dst2[0] != 0 || dst2[1] != 1 {
		t.Errorf("equal-size inherit wrong: %v", dst2)
	}
}

// TestSliceAndCopyVec pins the two flat publication forms: Run hands its
// dying state over without a copy (cow.Wrap), BuildResult copies first
// because the caller keeps mutating its arrays.
func TestSliceAndCopyVec(t *testing.T) {
	vals := []float64{1, 2, 3}
	sv := cow.Wrap(vals)
	cv := cow.Wrap(slices.Clone(vals))
	vals[1] = math.Pi
	if sv.At(1) != math.Pi {
		t.Error("a wrapped vector must alias the caller's slice")
	}
	if cv.At(1) != 2 {
		t.Error("a wrapped clone must not alias the caller's slice")
	}
}
