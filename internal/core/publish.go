package core

import (
	"kbt/internal/cow"
	"kbt/internal/parallel"
	"kbt/internal/triple"
)

// This file implements zero-copy result publication: immutable result
// generations whose per-triple and per-item posteriors live in per-shard
// chunks that successive generations share.
//
// EM.BuildResult deep-copies every posterior array — O(corpus) per refresh,
// no matter how small the ingest. BuildResultFrom instead copy-on-writes:
// a shard the refresh re-estimated (or grew) gets a fresh chunk copied from
// the engine's working arrays, and every other shard's chunk is shared with
// the previous generation by pointer. The shard-position index that backs
// random access (triple id → (shard, position), item id → (shard,
// position)) follows the same append-only prefix discipline as
// Snapshot.Extend and NewEMFrom: ids never shift, shard triple/item lists
// only append, so each generation extends the previous index in place and
// keeps a value slice header of its own length — readers of an old
// generation never see the entries appended after it. Publication therefore
// costs O(dirty shards + units) instead of O(corpus), and an arbitrary
// number of generations can be alive at once: a reader holding an old
// Result keeps a fully consistent view while the engine publishes new ones.
//
// Correctness rests on one engine invariant: between two publications, the
// working posterior arrays change only inside the shards the refresh
// re-estimated (which always include every shard that gained an item or a
// candidate triple). A chunk shared across generations is therefore
// bit-identical to what a fresh copy would contain.

// genStore is the chunked posterior storage of one published generation.
type genStore struct {
	nShards int
	// chunks[si] holds shard si's posteriors; shared with the previous
	// generation when the refresh never re-estimated the shard.
	chunks []*genChunk
	// tripleShard/triplePos map a candidate-triple id to its chunk and the
	// position inside it; itemShard/itemPos do the same for data items.
	// The backing arrays are extended append-only across generations.
	tripleShard, triplePos []int32
	itemShard, itemPos     []int32
}

// genChunk holds one shard's posteriors, indexed by the triple's respectively
// item's position in the shard's Triples/Items list. The value-posterior
// rows are stored flat (one backing per chunk, delimited by rowOff) rather
// than as a slice of row headers: pointer-free chunks cost the garbage
// collector nothing to scan, which matters when hundreds of generations
// churn through a serving process.
type genChunk struct {
	cProb    []float64
	covTri   []bool
	rows     []float64 // concatenated value-posterior rows
	rowOff   []int32   // len(items)+1 row boundaries into rows
	restMass []float64
	covItem  []bool
}

// valueRow returns the value-posterior row of the item at position pos,
// capacity-capped so appenders cannot touch the neighbouring row.
func (ck *genChunk) valueRow(pos int) []float64 {
	lo, hi := ck.rowOff[pos], ck.rowOff[pos+1]
	return ck.rows[lo:hi:hi]
}

// BuildResultFrom assembles a Result generation by copy-on-write against
// prev: shards marked in touched get fresh chunks copied from the
// caller-owned working arrays, all other shards share prev's chunks. A nil
// prev (or one with a different shard structure) builds every chunk — the
// cold path, identical in content to BuildResult. touched must cover every
// shard whose working values changed since prev was published, including
// every shard that gained an item or candidate triple; the engine's E-step
// sets guarantee this by construction.
func (em *EM) BuildResultFrom(prev *Result, shards []triple.Shard, touched []bool, cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, iterations int, converged bool) *Result {
	st := em.st
	s := st.s
	nTri, nItem := len(s.Triples), len(s.Items)

	var pg *genStore
	if prev != nil && prev.gen != nil && prev.gen.nShards == len(shards) &&
		len(prev.gen.tripleShard) <= nTri && len(prev.gen.itemShard) <= nItem {
		pg = prev.gen
	}

	g := &genStore{nShards: len(shards), chunks: make([]*genChunk, len(shards))}
	var dirty []int
	prevNTri, prevNItem := 0, 0
	if pg == nil {
		g.tripleShard = make([]int32, nTri)
		g.triplePos = make([]int32, nTri)
		g.itemShard = make([]int32, nItem)
		g.itemPos = make([]int32, nItem)
		dirty = make([]int, len(shards))
		for si := range dirty {
			dirty[si] = si
		}
	} else {
		// Index extension reuses the previous generation's spare capacity
		// (grow appends): entries [prevN, n) are written exactly once, by
		// this generation; older generations' slice headers never cover
		// them, so the shared backing is safe under concurrent readers.
		prevNTri, prevNItem = len(pg.tripleShard), len(pg.itemShard)
		g.tripleShard = grow(pg.tripleShard, nTri, 0)
		g.triplePos = grow(pg.triplePos, nTri, 0)
		g.itemShard = grow(pg.itemShard, nItem, 0)
		g.itemPos = grow(pg.itemPos, nItem, 0)
		for si := range shards {
			if touched[si] {
				dirty = append(dirty, si)
			} else {
				g.chunks[si] = pg.chunks[si]
			}
		}
	}

	covTri := st.coveredTriple
	parallel.ForEach(len(dirty), st.opt.Workers, func(k int) {
		si := dirty[k]
		sh := shards[si]
		ck := &genChunk{
			cProb:    make([]float64, len(sh.Triples)),
			covTri:   make([]bool, len(sh.Triples)),
			rowOff:   make([]int32, len(sh.Items)+1),
			restMass: make([]float64, len(sh.Items)),
			covItem:  make([]bool, len(sh.Items)),
		}
		for pos, ti := range sh.Triples {
			ck.cProb[pos] = cProb[ti]
			ck.covTri[pos] = covTri[ti]
			if ti >= prevNTri {
				g.tripleShard[ti] = int32(si)
				g.triplePos[ti] = int32(pos)
			}
		}
		total := 0
		for _, d := range sh.Items {
			total += len(valueProb[d])
		}
		ck.rows = make([]float64, 0, total)
		for pos, d := range sh.Items {
			ck.rows = append(ck.rows, valueProb[d]...)
			ck.rowOff[pos+1] = int32(len(ck.rows))
			ck.restMass[pos] = restMass[d]
			ck.covItem[pos] = coveredItem[d]
			if d >= prevNItem {
				g.itemShard[d] = int32(si)
				g.itemPos[d] = int32(pos)
			}
		}
		g.chunks[si] = ck
	})

	// Per-unit parameters publish copy-on-write (params.go): a chunk no
	// write dirtied since prev was published is shared by pointer, so a
	// refresh that moved a handful of units copies a handful of chunks —
	// O(changed chunks) instead of O(units). prev must be the generation the
	// dirty marks were cleared against (the engine always passes its last
	// published Result); clearing the marks below makes this generation the
	// new baseline. The inclusion copies share one backing allocation.
	var pva, pvp, pvr, pvq cow.Vec[float64]
	if prev != nil {
		pva, pvp, pvr, pvq = prev.aVec, prev.pVec, prev.rVec, prev.qVec
	}
	nS, nE := len(st.a), len(st.p)
	bb := make([]bool, 0, nS+nE)
	bsub := func(src []bool) []bool {
		n0 := len(bb)
		bb = append(bb, src...)
		return bb[n0:len(bb):len(bb)]
	}
	res := &Result{
		aVec:              buildUnitVec(pva, st.a, st.srcDirty),
		pVec:              buildUnitVec(pvp, st.p, st.extDirty),
		rVec:              buildUnitVec(pvr, st.r, st.extDirty),
		qVec:              buildUnitVec(pvq, st.q, st.extDirty),
		SourceIncluded:    bsub(st.srcIncluded),
		ExtractorIncluded: bsub(st.extIncluded),
		expVec:            em.expectedTriples(prev, pg, shards, dirty, prevNTri, cProb),
		Iterations:        iterations,
		Converged:         converged,
		gen:               g,
		snap:              s,
	}
	clear(st.srcDirty)
	clear(st.extDirty)
	return res
}

// expectedTriples computes the per-source Σ p(C|X). On the incremental path
// (a compatible previous generation and incremental aggregates) it folds
// only the dirty shards' cProb deltas into the previous generation's sums —
// O(dirty), re-anchored exactly whenever a full pass rebuilds every chunk.
// Otherwise it aggregates in global triple order, bit-identical to Run and
// BuildResult (the FullAggregates/FullRecompile oracles re-aggregate every
// refresh, keeping their bit-exactness contract).
func (em *EM) expectedTriples(prev *Result, pg *genStore, shards []triple.Shard, dirty []int, prevNTri int, cProb []float64) cow.Vec[float64] {
	st := em.st
	s := st.s
	anchor := st.agg == nil || st.agg.expAnchor || len(dirty) == len(shards)
	if st.agg != nil {
		st.agg.expAnchor = false
	}
	if pg == nil || anchor {
		exp := make([]float64, len(s.Sources))
		for ti, tr := range s.Triples {
			exp[tr.W] += cProb[ti]
		}
		return cow.Wrap(exp)
	}
	// Delta fold, copy-on-write: every chunk starts shared with prev and is
	// copied on its first adjustment, so only the sources of dirty shards'
	// triples (and new sources, zero-filled) cost a copy.
	exp := prev.expVec.Fork()
	for exp.Len() < len(s.Sources) {
		exp.Append(0)
	}
	for _, si := range dirty {
		pc := pg.chunks[si]
		for pos, ti := range shards[si].Triples {
			old := 0.0
			if pos < len(pc.cProb) {
				old = pc.cProb[pos]
			}
			if d := cProb[ti] - old; d != 0 {
				w := s.Triples[ti].W
				exp.Set(w, exp.At(w)+d)
			}
		}
	}
	return exp
}
