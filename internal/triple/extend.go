package triple

import (
	"slices"

	"kbt/internal/cow"
)

// Extend compiles records on top of the snapshot, producing a new snapshot
// equal to compiling the parent's records followed by the new ones in one
// batch — bit-identical tables, indexes and canonical order, hence
// bit-identical downstream inference. The parent is not mutated and remains
// fully usable.
//
// Cost: proportional to the new records, the items they touch and the
// chunks of index rows they land in — not the corpus. The first Extend of a
// snapshot claims its tail (tailClaimed): the child adopts the parent's flat
// append-only tables (observations, labels, PredOfItem) and appends into
// their spare capacity, forks each inverted index (a copy of its chunk
// headers, see internal/cow) and appends to index rows in place, past the
// length every older snapshot reads. Index chunks and rows untouched by the
// new records stay shared with the parent; a sorted insert that lands inside
// a parent row copies that row once. Interning maps are layered
// copy-on-write (flattened past a fixed depth, so lookup cost stays bounded
// across arbitrarily long Extend lineages). A second Extend of the same
// parent — a retry after a failed refresh, say — finds the tail claimed and
// extends a private deep copy of every table instead, at O(corpus) cost.
//
// Invariants the child guarantees relative to its parent:
//
//   - dense ids are stable: every source/extractor/item/value/predicate
//     keeps its id, and new labels take the next ids in first-appearance
//     order;
//   - Triples is append-only: parent.Triples is a strict prefix of
//     child.Triples, so per-triple state carries over by index;
//   - Obs is append-only except that a duplicate (e,w,d,v) cell with higher
//     confidence raises the existing observation's Conf (in the child only).
//
// Extend panics if the parent was compiled with positional label overrides
// (CompileOptions.SourceLabels/ExtractorLabels): those labels are parallel
// to the original record slice and cannot classify new records.
func (s *Snapshot) Extend(records []Record) *Snapshot {
	if s.labelCompiled {
		panic("triple: Extend on a snapshot compiled with positional label overrides")
	}
	c := &Snapshot{
		sourceIdx:    s.sourceIdx.child(s.Sources),
		extractorIdx: s.extractorIdx.child(s.Extractors),
		itemIdx:      s.itemIdx.child(s.Items),
		valueIdx:     s.valueIdx.child(s.Values),
		predIdx:      s.predIdx.child(s.Predicates),

		copt: s.copt,

		// Record the parent table sizes before appending, so ParentDelta can
		// tell incremental consumers exactly which suffixes are new.
		delta: &Delta{
			Obs: len(s.Obs), Triples: len(s.Triples), Items: len(s.Items),
			Sources: len(s.Sources), Extractors: len(s.Extractors), Values: len(s.Values),
		},
	}
	// The first Extend of a parent claims its tail: the child adopts the
	// parent's tables and appends past the prefixes every holder of the
	// parent reads. A later one would collide in the shared tails, so it
	// extends a private deep copy.
	if s.tailClaimed.CompareAndSwap(false, true) {
		c.Obs = s.Obs
		c.obsShared = true
		c.Triples = s.Triples
		c.Sources = s.Sources
		c.Extractors = s.Extractors
		c.Items = s.Items
		c.Values = s.Values
		c.Predicates = s.Predicates
		c.PredOfItem = s.PredOfItem
		c.ItemValues = s.ItemValues.Fork()
		c.ByTriple = s.ByTriple.Fork()
		c.TriplesOfItem = s.TriplesOfItem.Fork()
		c.TriplesOfSource = s.TriplesOfSource.Fork()
		c.ObsOfExtractor = s.ObsOfExtractor.Fork()
		c.SourcesOfExtractor = s.SourcesOfExtractor.Fork()
	} else {
		c.Obs = append(make([]Observation, 0, len(s.Obs)+len(records)), s.Obs...)
		c.Triples = slices.Clone(s.Triples)
		c.Sources = slices.Clone(s.Sources)
		c.Extractors = slices.Clone(s.Extractors)
		c.Items = slices.Clone(s.Items)
		c.Values = slices.Clone(s.Values)
		c.Predicates = slices.Clone(s.Predicates)
		c.PredOfItem = slices.Clone(s.PredOfItem)
		c.ItemValues = deepCopy(s.ItemValues)
		c.ByTriple = deepCopy(s.ByTriple)
		c.TriplesOfItem = deepCopy(s.TriplesOfItem)
		c.TriplesOfSource = deepCopy(s.TriplesOfSource)
		c.ObsOfExtractor = deepCopy(s.ObsOfExtractor)
		c.SourcesOfExtractor = deepCopy(s.SourcesOfExtractor)
	}
	ap := newAppender(c, nil, nil)
	for ri := range records {
		ap.add(ri, records[ri])
	}
	return c
}

// deepCopy returns rows with every row copied into a fresh backing, so no
// append or insert on the copy can reach another snapshot's rows.
func deepCopy(rows cow.Vec[[]int]) cow.Vec[[]int] {
	var out cow.Vec[[]int]
	for _, row := range rows.All() {
		out.Append(slices.Clone(row))
	}
	return out
}
