package experiments

import (
	"sort"

	"kbt/internal/core"
	"kbt/internal/granularity"
	"kbt/internal/metrics"
	"kbt/internal/pagerank"
	"kbt/internal/stats"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// MinKBTTriples is the paper's reporting threshold: KBT is published only
// for sources with at least 5 correctly-extracted triples (§5.4).
const MinKBTTriples = 5

// runSiteKBT runs the multi-layer model at website granularity, the unit
// the §5.4 analyses are reported at. Extractors use split-and-merge
// granularity so that sparse patterns keep their statistical strength.
func runSiteKBT(w *websim.World, cfg KVConfig) (*triple.Snapshot, *core.Result, error) {
	extLabels, _, err := granularity.Extractors(w.Dataset.Records, cfg.MinSupport, cfg.MaxSize, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	s := w.Dataset.Compile(triple.CompileOptions{
		SourceKey:       triple.SourceKeyWebsite,
		ExtractorLabels: extLabels,
	})
	opt := core.DefaultOptions()
	opt.MinSourceSupport = cfg.MinSupport
	opt.MinExtractorSupport = cfg.MinSupport
	opt.Workers = cfg.Workers
	res, err := core.Run(s, opt)
	if err != nil {
		return nil, nil, err
	}
	return s, res, nil
}

// Fig7Result is the distribution of website KBT (Figure 7).
type Fig7Result struct {
	// Bins is a 20-bin histogram over [0,1] of KBT for reportable sites.
	Bins []metrics.Bin
	// ReportableSites counts sites passing the ≥5-triple threshold.
	ReportableSites int
	// PeakBin is the [Lo,Hi) of the most populated bin (the paper's peak is
	// at 0.8); FracAbove08 is the share of sites with KBT over 0.8 (52% in
	// the paper).
	PeakBin     metrics.Bin
	FracAbove08 float64
}

// Fig7 reproduces Figure 7 on a simulated corpus.
func Fig7(cfg KVConfig) (*Fig7Result, error) {
	w, err := BuildKV(cfg)
	if err != nil {
		return nil, err
	}
	return Fig7On(w, cfg)
}

// Fig7On computes the KBT distribution on an existing corpus.
func Fig7On(w *websim.World, cfg KVConfig) (*Fig7Result, error) {
	s, res, err := runSiteKBT(w, cfg)
	if err != nil {
		return nil, err
	}
	var kbts []float64
	for wi := range s.Sources {
		if kbt, ok := res.KBT(wi, MinKBTTriples); ok {
			kbts = append(kbts, kbt)
		}
	}
	out := &Fig7Result{
		Bins:            metrics.Histogram(kbts, 0, 1, 0.05),
		ReportableSites: len(kbts),
	}
	above := 0
	for _, k := range kbts {
		if k > 0.8 {
			above++
		}
	}
	if len(kbts) > 0 {
		out.FracAbove08 = float64(above) / float64(len(kbts))
	}
	for _, b := range out.Bins {
		if b.Count > out.PeakBin.Count {
			out.PeakBin = b
		}
	}
	return out, nil
}

// Fig10Point is one website in the KBT-vs-PageRank scatter (Figure 10).
type Fig10Point struct {
	Site     string
	KBT      float64
	PageRank float64 // normalised to [0,1]
	Kind     websim.SiteKind
}

// Fig10Result is the scatter plus the paper's two corner analyses.
type Fig10Result struct {
	Points []Fig10Point
	// Correlation between the two signals (the paper finds them "almost
	// orthogonal").
	Correlation float64
	// HighKBTLowPR counts trustworthy tail sites (KBT > 0.9, PageRank
	// percentile < 0.5); the paper finds most high-KBT sites have low
	// PageRank. GossipHighPRLowKBT counts gossip sites landing in the
	// PageRank top 15% and the KBT bottom 50%, the paper's §5.4.1 check.
	HighKBTLowPR         int
	HighKBT              int
	GossipHighPRLowKBT   int
	GossipSitesEvaluated int
}

// Fig10 reproduces Figure 10: KBT and PageRank for up to maxSites sampled
// websites, with the §5.4.1 corner analyses.
func Fig10(cfg KVConfig, maxSites int) (*Fig10Result, error) {
	w, err := BuildKV(cfg)
	if err != nil {
		return nil, err
	}
	return Fig10On(w, cfg, maxSites)
}

// Fig10On computes Figure 10 on an existing corpus.
func Fig10On(w *websim.World, cfg KVConfig, maxSites int) (*Fig10Result, error) {
	s, res, err := runSiteKBT(w, cfg)
	if err != nil {
		return nil, err
	}
	pr, err := pagerank.Compute(w.Graph, pagerank.DefaultOptions())
	if err != nil {
		return nil, err
	}
	pct := pr.PercentileRank()

	type siteScore struct {
		name   string
		kbt    float64
		prNorm float64
		prPct  float64
		kind   websim.SiteKind
	}
	var scored []siteScore
	for wi, name := range s.Sources {
		kbt, ok := res.KBT(wi, MinKBTTriples)
		if !ok {
			continue
		}
		gid := w.Graph.ID(name)
		if gid < 0 {
			continue
		}
		site, _ := w.SiteOf(name)
		scored = append(scored, siteScore{
			name: name, kbt: kbt,
			prNorm: pr.Normalized[gid], prPct: pct[gid], kind: site.Kind,
		})
	}
	sort.Slice(scored, func(i, j int) bool { return scored[i].name < scored[j].name })

	// Sample deterministically if over the limit.
	if maxSites > 0 && len(scored) > maxSites {
		rng := stats.NewRNG(cfg.Seed)
		perm := rng.Perm(len(scored))[:maxSites]
		sort.Ints(perm)
		sampled := make([]siteScore, 0, maxSites)
		for _, i := range perm {
			sampled = append(sampled, scored[i])
		}
		scored = sampled
	}

	out := &Fig10Result{}
	kbtMedian := medianOf(scored, func(x siteScore) float64 { return x.kbt })
	var xs, ys []float64
	for _, sc := range scored {
		out.Points = append(out.Points, Fig10Point{
			Site: sc.name, KBT: sc.kbt, PageRank: sc.prNorm, Kind: sc.kind,
		})
		xs = append(xs, sc.kbt)
		ys = append(ys, sc.prNorm)
		if sc.kbt > 0.9 {
			out.HighKBT++
			if sc.prPct < 0.5 {
				out.HighKBTLowPR++
			}
		}
		if sc.kind == websim.Gossip {
			out.GossipSitesEvaluated++
			if sc.prPct >= 0.85 && sc.kbt <= kbtMedian {
				out.GossipHighPRLowKBT++
			}
		}
	}
	out.Correlation, _ = stats.Correlation(xs, ys)
	return out, nil
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	m, _ := stats.Quantile(vals, 0.5)
	return m
}

// Eval541Result is the programmatic version of the paper's §5.4.1 manual
// evaluation: sample high-KBT sites, sample 10 confidently-extracted triples
// from each site's top-3 predicates, and apply the four criteria.
type Eval541Result struct {
	SitesEvaluated int
	// Trustworthy sites satisfy all four criteria (the paper finds 85/100).
	Trustworthy int
	// Per-criterion failure counts (a site may fail several).
	FailTripleCorrectness     int
	FailExtractionCorrectness int
	FailTopicRelevance        int
	FailNonTrivial            int
	// TrustworthyWithHighPR counts trustworthy sites whose normalised
	// PageRank exceeds 0.5 (20/85 in the paper — most are tail sites).
	TrustworthyWithHighPR int
}

// Eval541 runs the §5.4.1 evaluation on a fresh corpus: up to maxSites
// websites with KBT above kbtThreshold.
func Eval541(cfg KVConfig, maxSites int, kbtThreshold float64) (*Eval541Result, error) {
	w, err := BuildKV(cfg)
	if err != nil {
		return nil, err
	}
	return Eval541On(w, cfg, maxSites, kbtThreshold)
}

// Eval541On runs the §5.4.1 evaluation on an existing corpus.
func Eval541On(w *websim.World, cfg KVConfig, maxSites int, kbtThreshold float64) (*Eval541Result, error) {
	s, res, err := runSiteKBT(w, cfg)
	if err != nil {
		return nil, err
	}
	pr, err := pagerank.Compute(w.Graph, pagerank.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// Candidate sites: KBT above threshold.
	var candidates []int
	for wi := range s.Sources {
		if kbt, ok := res.KBT(wi, MinKBTTriples); ok && kbt > kbtThreshold {
			candidates = append(candidates, wi)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return s.Sources[candidates[i]] < s.Sources[candidates[j]] })
	rng := stats.NewRNG(cfg.Seed + 541)
	if maxSites > 0 && len(candidates) > maxSites {
		perm := rng.Perm(len(candidates))[:maxSites]
		sort.Ints(perm)
		picked := make([]int, 0, maxSites)
		for _, i := range perm {
			picked = append(picked, candidates[i])
		}
		candidates = picked
	}

	out := &Eval541Result{}
	for _, wi := range candidates {
		name := s.Sources[wi]
		site, ok := w.SiteOf(name)
		if !ok {
			continue
		}
		// Confidently-extracted candidate triples, grouped by predicate.
		byPred := map[string][]int{}
		for _, ti := range s.TriplesOfSource.At(wi) {
			if res.CProbAt(ti) <= 0.8 {
				continue
			}
			_, pred := itemSubjectPredicate(s.Items[s.Triples[ti].D])
			byPred[pred] = append(byPred[pred], ti)
		}
		// Top-3 predicates by volume.
		type pc struct {
			pred string
			n    int
		}
		var preds []pc
		for p, tis := range byPred {
			preds = append(preds, pc{p, len(tis)})
		}
		sort.Slice(preds, func(i, j int) bool {
			if preds[i].n != preds[j].n {
				return preds[i].n > preds[j].n
			}
			return preds[i].pred < preds[j].pred
		})
		if len(preds) > 3 {
			preds = preds[:3]
		}
		var pool []int
		for _, p := range preds {
			pool = append(pool, byPred[p.pred]...)
		}
		if len(pool) == 0 {
			continue
		}
		sample := pool
		if len(pool) > 10 {
			perm := rng.Perm(len(pool))[:10]
			sample = make([]int, 0, 10)
			for _, i := range perm {
				sample = append(sample, pool[i])
			}
		}

		correct, extracted, onTopic, nonTrivial := 0, 0, 0, 0
		for _, ti := range sample {
			tr := s.Triples[ti]
			subj, pred := itemSubjectPredicate(s.Items[tr.D])
			obj := s.Values[tr.V]
			// Triple correctness: the value matches the world's truth.
			if truth, ok := w.TrueObject(subj, pred); ok && truth == obj {
				correct++
			}
			// Extraction correctness: some page of the site provides it.
			if siteProvides(w, site, subj, pred, obj) {
				extracted++
			}
			if w.TopicOfSubject[subj] == site.Topic {
				onTopic++
			}
			if !w.TrivialPredicates[pred] {
				nonTrivial++
			}
		}
		need := (len(sample)*9 + 9) / 10 // ≥90% of the sample
		okTriple := correct >= need
		okExtract := extracted >= need
		okTopic := onTopic >= need
		okTrivial := nonTrivial >= need
		out.SitesEvaluated++
		if !okTriple {
			out.FailTripleCorrectness++
		}
		if !okExtract {
			out.FailExtractionCorrectness++
		}
		if !okTopic {
			out.FailTopicRelevance++
		}
		if !okTrivial {
			out.FailNonTrivial++
		}
		if okTriple && okExtract && okTopic && okTrivial {
			out.Trustworthy++
			if gid := w.Graph.ID(name); gid >= 0 && pr.Normalized[gid] > 0.5 {
				out.TrustworthyWithHighPR++
			}
		}
	}
	return out, nil
}

// siteProvides checks whether any page of the site provides (s,p,o).
func siteProvides(w *websim.World, site websim.Site, subj, pred, obj string) bool {
	for pg := 0; pg < site.Pages; pg++ {
		if w.ProvidedTruth(site.Name, pageNameFor(site.Name, pg), subj, pred, obj) {
			return true
		}
	}
	return false
}

func pageNameFor(site string, pg int) string {
	return site + "/page" + fourDigits(pg)
}

func fourDigits(n int) string {
	digits := []byte{'0', '0', '0', '0'}
	for i := 3; i >= 0 && n > 0; i-- {
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return string(digits)
}
