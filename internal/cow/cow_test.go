package cow

import (
	"math/rand"
	"slices"
	"testing"
)

// version is one Vec under test next to the plain slice it must equal.
// frozen marks a version that has been forked or used as an Update base and
// so, by the ownership rule, is never written again.
type version struct {
	v      Vec[int]
	model  []int
	frozen bool
}

func checkVersion(t *testing.T, step, k int, x *version) {
	t.Helper()
	if x.v.Len() != len(x.model) {
		t.Fatalf("step %d version %d: Len %d, want %d", step, k, x.v.Len(), len(x.model))
	}
	for i, want := range x.model {
		if got := x.v.At(i); got != want {
			t.Fatalf("step %d version %d: At(%d) = %d, want %d", step, k, i, got, want)
		}
	}
	var all []int
	for i, got := range x.v.All() {
		if i != len(all) {
			t.Fatalf("step %d version %d: All yielded index %d at position %d", step, k, i, len(all))
		}
		all = append(all, got)
	}
	if !slices.Equal(all, x.model) {
		t.Fatalf("step %d version %d: All diverges from the model", step, k)
	}
}

// TestVecMatchesModel drives random Set/Append/Fork/Update sequences over a
// growing family of versions and checks, every few steps, that every
// version — including every frozen ancestor — still reads exactly its own
// model values.
func TestVecMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n0 := rng.Intn(3 * ChunkSize)
		vals := make([]int, n0)
		for i := range vals {
			vals[i] = rng.Int()
		}
		vs := []*version{{v: Wrap(slices.Clone(vals)), model: vals}}
		if rng.Intn(2) == 0 {
			vs[0].v = Vec[int]{}
			for _, x := range vals {
				vs[0].v.Append(x)
			}
		}
		for step := 0; step < 150; step++ {
			x := vs[rng.Intn(len(vs))]
			switch op := rng.Intn(10); {
			case op < 4 && !x.frozen && len(x.model) > 0:
				i, val := rng.Intn(len(x.model)), rng.Int()
				x.v.Set(i, val)
				x.model[i] = val
			case op < 7 && !x.frozen:
				for k := rng.Intn(ChunkSize + ChunkSize/2); k > 0; k-- {
					val := rng.Int()
					x.v.Append(val)
					x.model = append(x.model, val)
				}
			case op < 9:
				x.frozen = true
				vs = append(vs, &version{v: x.v.Fork(), model: slices.Clone(x.model)})
			default:
				// Rewrite a few chunks of a copy of x's values, maybe grow
				// it, and publish the copy against x.
				work := slices.Clone(x.model)
				for k := rng.Intn(ChunkSize); k > 0; k-- {
					work = append(work, rng.Int())
				}
				dirty := make(map[int]bool)
				for k := rng.Intn(4); k > 0 && len(work) > 0; k-- {
					i := rng.Intn(len(work))
					work[i] = rng.Int()
					dirty[ChunkOf(i)] = true
				}
				x.frozen = true
				u := Update(x.v, work, func(ci int) bool { return !dirty[ci] })
				vs = append(vs, &version{v: u, model: slices.Clone(work)})
				for i := range work { // the caller keeps its working array
					work[i] = -1
				}
			}
			if step%5 == 4 { // every version, frozen ancestors included
				for k, y := range vs {
					checkVersion(t, step, k, y)
				}
			}
		}
	}
}

func chunkAddr(v Vec[int], ci int) *int { return &v.chunks[ci][0] }

func iota(n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	return vals
}

func TestForkSharesUntilWrite(t *testing.T) {
	n := 2*ChunkSize + 7
	base := Wrap(iota(n))
	f := base.Fork()
	for ci := range base.chunks {
		if chunkAddr(f, ci) != chunkAddr(base, ci) {
			t.Fatalf("fork copied chunk %d before any write", ci)
		}
	}
	f.Set(ChunkSize+3, -1)
	f.Set(ChunkSize+4, -2) // second write lands in the now-owned copy
	if chunkAddr(f, 0) != chunkAddr(base, 0) || chunkAddr(f, 2) != chunkAddr(base, 2) {
		t.Fatal("untouched chunks were copied")
	}
	if chunkAddr(f, 1) == chunkAddr(base, 1) {
		t.Fatal("written chunk still shared")
	}
	if f.At(ChunkSize+3) != -1 || f.At(ChunkSize+4) != -2 || base.At(ChunkSize+3) != ChunkSize+3 {
		t.Fatal("copy-on-write leaked into the source")
	}

	// Appending to a shared partial tail chunk copies that chunk only; a
	// full chunk appends into a fresh one.
	g := base.Fork()
	g.Append(-3)
	if chunkAddr(g, 2) == chunkAddr(base, 2) || chunkAddr(g, 1) != chunkAddr(base, 1) {
		t.Fatal("append copied the wrong chunks")
	}
	if base.Len() != n || g.Len() != n+1 || g.At(n) != -3 {
		t.Fatal("append leaked into the source")
	}
	full := Wrap(iota(ChunkSize)).Fork()
	full.Append(-4)
	if len(full.chunks) != 2 || full.At(ChunkSize) != -4 {
		t.Fatal("append past a full chunk must open a new one")
	}
}

// TestUpdateSharesCleanChunks: clean chunks prev covers in full are shared by
// pointer; dirty chunks and a grown boundary chunk are copied.
func TestUpdateSharesCleanChunks(t *testing.T) {
	n := 2*ChunkSize + 7
	work := iota(n)
	allClean := func(int) bool { return true }
	base := Update(Vec[int]{}, work, allClean)
	if base.Len() != n || base.At(0) != 0 || base.At(n-1) != n-1 {
		t.Fatalf("base vec wrong: len=%d", base.Len())
	}

	same := Update(base, work, allClean)
	for ci := range same.chunks {
		if chunkAddr(same, ci) != chunkAddr(base, ci) {
			t.Fatalf("clean chunk %d was copied", ci)
		}
	}

	work[ChunkSize+3] = -1
	next := Update(base, work, func(ci int) bool { return ci != 1 })
	if chunkAddr(next, 0) != chunkAddr(base, 0) || chunkAddr(next, 2) != chunkAddr(base, 2) {
		t.Fatal("clean chunks were copied")
	}
	if chunkAddr(next, 1) == chunkAddr(base, 1) {
		t.Fatal("dirty chunk was shared")
	}
	if next.At(ChunkSize+3) != -1 || base.At(ChunkSize+3) != ChunkSize+3 {
		t.Fatal("copy-on-write leaked into the previous version")
	}
	work[ChunkSize+3] = 7
	if next.At(ChunkSize+3) != -1 {
		t.Fatal("Update aliases the working array")
	}

	// Growth: the boundary chunk is copied although clean; whole chunks
	// before it stay shared.
	grown := append(work, 1, 2, 3)
	gv := Update(base, grown, allClean)
	if chunkAddr(gv, 0) != chunkAddr(base, 0) || chunkAddr(gv, 1) != chunkAddr(base, 1) {
		t.Fatal("full chunks not shared across growth")
	}
	if len(gv.chunks[2]) != 10 || gv.At(n+2) != 3 {
		t.Fatalf("boundary chunk not extended: len=%d", len(gv.chunks[2]))
	}
}

func TestWrapAliases(t *testing.T) {
	vals := []int{1, 2, 3}
	wrapped, copied := Wrap(vals), Wrap(slices.Clone(vals))
	vals[1] = 9
	if wrapped.At(1) != 9 {
		t.Error("Wrap must alias the caller's slice")
	}
	if copied.At(1) != 2 {
		t.Error("Wrap of a clone must not alias the caller's slice")
	}
}

func TestChunkArithmetic(t *testing.T) {
	for _, c := range []struct{ n, chunks int }{{0, 0}, {1, 1}, {ChunkSize, 1}, {ChunkSize + 1, 2}} {
		if got := Chunks(c.n); got != c.chunks {
			t.Errorf("Chunks(%d) = %d, want %d", c.n, got, c.chunks)
		}
	}
	if ChunkOf(ChunkSize-1) != 0 || ChunkOf(ChunkSize) != 1 {
		t.Error("ChunkOf misplaces the chunk boundary")
	}
}
