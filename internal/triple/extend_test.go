package triple

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"kbt/internal/cow"
)

// snapshotTables flattens every exported table of a snapshot for deep
// comparison. Extend's contract is bit-identical equality with a one-shot
// Compile over the concatenated records, so the comparison is exact.
type snapshotTables struct {
	Obs                []Observation
	Sources            []string
	Extractors         []string
	Items              []string
	Values             []string
	Predicates         []string
	PredOfItem         []int
	ItemValues         [][]int
	Triples            []TripleRef
	ByTriple           [][]int
	TriplesOfItem      [][]int
	TriplesOfSource    [][]int
	ObsOfExtractor     [][]int
	SourcesOfExtractor [][]int
}

func tablesOf(s *Snapshot) snapshotTables {
	return snapshotTables{
		Obs: s.Obs, Sources: s.Sources, Extractors: s.Extractors,
		Items: s.Items, Values: s.Values, Predicates: s.Predicates,
		PredOfItem: s.PredOfItem, ItemValues: rowsOf(s.ItemValues),
		Triples: s.Triples, ByTriple: rowsOf(s.ByTriple),
		TriplesOfItem: rowsOf(s.TriplesOfItem), TriplesOfSource: rowsOf(s.TriplesOfSource),
		ObsOfExtractor: rowsOf(s.ObsOfExtractor), SourcesOfExtractor: rowsOf(s.SourcesOfExtractor),
	}
}

// rowsOf flattens a copy-on-write index into plain rows.
func rowsOf(v cow.Vec[[]int]) [][]int {
	out := make([][]int, 0, v.Len())
	for _, row := range v.All() {
		out = append(out, row)
	}
	return out
}

// requireEqualSnapshots fails the test unless got and want are structurally
// identical, including the label lookups the unexported intern tables serve.
func requireEqualSnapshots(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats diverge:\n got  %s\n want %s", g, w)
	}
	gt, wt := tablesOf(got), tablesOf(want)
	rv, wv := reflect.ValueOf(gt), reflect.ValueOf(wt)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("table %s diverges:\n got  %v\n want %v",
				rv.Type().Field(i).Name, rv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	for w, label := range want.Sources {
		if got.SourceID(label) != w {
			t.Errorf("SourceID(%q) = %d, want %d", label, got.SourceID(label), w)
		}
	}
	for e, label := range want.Extractors {
		if got.ExtractorID(label) != e {
			t.Errorf("ExtractorID(%q) = %d, want %d", label, got.ExtractorID(label), e)
		}
	}
	for v, label := range want.Values {
		if got.ValueID(label) != v {
			t.Errorf("ValueID(%q) = %d, want %d", label, got.ValueID(label), v)
		}
	}
	if got.SourceID("\x00absent") != -1 || got.ItemID("\x00absent", "x") != -1 {
		t.Error("absent labels must resolve to -1 on extended snapshots")
	}
}

// randomStream builds a deterministic pseudo-random record stream with
// colliding items, values, duplicate cells and varying confidences — the
// shapes that exercise every branch of the append path.
func randomStream(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		w := fmt.Sprintf("site%d.com", rng.Intn(9))
		recs[i] = Record{
			Extractor:  fmt.Sprintf("E%d", rng.Intn(5)),
			Pattern:    fmt.Sprintf("pat%d", rng.Intn(3)),
			Website:    w,
			Page:       fmt.Sprintf("%s/p%d", w, rng.Intn(4)),
			Subject:    fmt.Sprintf("S%d", rng.Intn(30)),
			Predicate:  fmt.Sprintf("pred%d", rng.Intn(6)),
			Object:     fmt.Sprintf("V%d", rng.Intn(12)),
			Confidence: float64(rng.Intn(11)) / 10, // includes 0 ("unspecified") and 1
		}
	}
	return recs
}

var extendGranularities = []struct {
	name string
	opt  CompileOptions
}{
	{"website", CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}},
	{"finest", CompileOptions{SourceKey: SourceKeyFinest, ExtractorKey: ExtractorKeyFinest}},
	{"page", CompileOptions{SourceKey: SourceKeyPage, ExtractorKey: ExtractorKeyName}},
}

// TestExtendMatchesCompile: compiling a prefix and extending with the suffix
// must equal compiling the whole stream, at every split point shape.
func TestExtendMatchesCompile(t *testing.T) {
	recs := randomStream(1, 400)
	for _, g := range extendGranularities {
		t.Run(g.name, func(t *testing.T) {
			want := (&Dataset{Records: recs}).Compile(g.opt)
			for _, cut := range []int{1, 37, 200, 399, len(recs)} {
				parent := (&Dataset{Records: recs[:cut]}).Compile(g.opt)
				got := parent.Extend(recs[cut:])
				requireEqualSnapshots(t, got, want)
			}
		})
	}
}

// TestExtendChainMatchesCompile: a chain of many small extends — the serving
// pattern, long enough to cross the intern-table flattening depth — must
// stay equal to one-shot compilation at every step.
func TestExtendChainMatchesCompile(t *testing.T) {
	recs := randomStream(2, 600)
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	const step = 10 // 60 extends: crosses maxInternDepth several times
	snap := (&Dataset{Records: recs[:step]}).Compile(opt)
	for cut := step; cut < len(recs); cut += step {
		end := min(cut+step, len(recs))
		snap = snap.Extend(recs[cut:end])
		if (end/step)%12 == 0 || end == len(recs) {
			want := (&Dataset{Records: recs[:end]}).Compile(opt)
			requireEqualSnapshots(t, snap, want)
		}
	}
}

// TestExtendDoesNotMutateParent: the parent snapshot must stay bit-identical
// after a child is built from it, including when the child raises the
// confidence of a duplicate cell and appends to every index family.
func TestExtendDoesNotMutateParent(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	recs := randomStream(3, 120)
	parent := (&Dataset{Records: recs}).Compile(opt)
	want := (&Dataset{Records: recs}).Compile(opt)

	extra := append(randomStream(4, 120),
		// Duplicate cell of an existing record with a higher confidence.
		Record{Extractor: recs[0].Extractor, Pattern: recs[0].Pattern,
			Website: recs[0].Website, Page: recs[0].Page,
			Subject: recs[0].Subject, Predicate: recs[0].Predicate,
			Object: recs[0].Object, Confidence: 1},
	)
	child := parent.Extend(extra)
	requireEqualSnapshots(t, parent, want)

	// Both parent and child must still extend safely after the fork.
	more := randomStream(5, 50)
	got1 := parent.Extend(more)
	got2 := child.Extend(more)
	requireEqualSnapshots(t, got1, (&Dataset{Records: append(slicesConcat(recs), more...)}).Compile(opt))
	requireEqualSnapshots(t, got2, (&Dataset{Records: append(append(slicesConcat(recs), extra...), more...)}).Compile(opt))
}

func slicesConcat(r []Record) []Record { return append([]Record(nil), r...) }

// TestExtendProperty: quick-check over random seeds, sizes and split points.
func TestExtendProperty(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	f := func(seed int64, nRaw, cutRaw uint16) bool {
		n := int(nRaw%300) + 2
		cut := int(cutRaw)%(n-1) + 1
		recs := randomStream(seed, n)
		want := (&Dataset{Records: recs}).Compile(opt)
		got := (&Dataset{Records: recs[:cut]}).Compile(opt).Extend(recs[cut:])
		return reflect.DeepEqual(tablesOf(got), tablesOf(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExtendShardsMatchesShards: delta shard views must equal full ones.
func TestExtendShardsMatchesShards(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	recs := randomStream(6, 500)
	for _, n := range []int{1, 3, 8} {
		parent := (&Dataset{Records: recs[:300]}).Compile(opt)
		parentShards := parent.Shards(n)
		child := parent.Extend(recs[300:])
		got := child.ExtendShards(parentShards, len(parent.Items), len(parent.Triples))
		want := child.Shards(n)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: ExtendShards diverges from Shards", n)
		}
		// Parent views untouched.
		if !reflect.DeepEqual(parentShards, parent.Shards(n)) {
			t.Errorf("n=%d: ExtendShards mutated the parent views", n)
		}
	}
}

// TestExtendLabelCompiledPanics: positional-label snapshots cannot extend.
func TestExtendLabelCompiledPanics(t *testing.T) {
	recs := randomStream(7, 10)
	labels := make([]string, len(recs))
	for i := range labels {
		labels[i] = fmt.Sprintf("unit%d", i%3)
	}
	s := (&Dataset{Records: recs}).Compile(CompileOptions{SourceLabels: labels})
	defer func() {
		if recover() == nil {
			t.Error("Extend on a label-compiled snapshot must panic")
		}
	}()
	s.Extend(recs[:1])
}

// TestExtendConcurrentWithParentReaders: readers walk every table and index
// row of a parent snapshot while its first child — which claims the tail and
// appends to the parent's rows in place — and 20 descendants are built. Run
// under -race, this pins that the in-place appends never touch what a
// reader of an older snapshot reads; afterwards the parent still equals a
// fresh Compile.
func TestExtendConcurrentWithParentReaders(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	recs := randomStream(8, 1300)
	const base, step = 300, 50
	parent := (&Dataset{Records: recs[:base]}).Compile(opt)

	const readers = 3
	var ready, done sync.WaitGroup
	ready.Add(readers)
	done.Add(readers)
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		go func() {
			defer done.Done()
			for pass := 0; ; pass++ {
				if pass == 1 {
					ready.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				sum := len(parent.Obs) + len(parent.Triples) + len(parent.Items) + len(parent.PredOfItem)
				for _, rows := range []cow.Vec[[]int]{parent.ItemValues, parent.ByTriple, parent.TriplesOfItem,
					parent.TriplesOfSource, parent.ObsOfExtractor, parent.SourcesOfExtractor} {
					for _, row := range rows.All() {
						for _, x := range row {
							sum += x
						}
					}
				}
				if sum < 0 {
					t.Error("negative index")
				}
			}
		}()
	}
	ready.Wait() // every reader has finished one full pass and is looping

	snap := parent
	for cut := base; cut < len(recs); cut += step {
		snap = snap.Extend(recs[cut : cut+step])
	}
	close(stop)
	done.Wait()

	requireEqualSnapshots(t, parent, (&Dataset{Records: recs[:base]}).Compile(opt))
	requireEqualSnapshots(t, snap, (&Dataset{Records: recs}).Compile(opt))
}
