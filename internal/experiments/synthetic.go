package experiments

import (
	"strings"

	"kbt/internal/core"
	"kbt/internal/fusion"
	"kbt/internal/metrics"
	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// SynthEval bundles the three square losses of §5.1.1 on synthetic data.
type SynthEval struct {
	SqV, SqC, SqA float64
}

// evalMultiSynthetic computes SqV/SqC/SqA for a multi-layer result against
// the generator's ground truth.
func evalMultiSynthetic(w *synthetic.World, s *triple.Snapshot, res *core.Result) SynthEval {
	var ev SynthEval

	// SqV over candidate (d,v) pairs of items with known truth.
	var vItems []metrics.Labeled
	for d := range s.Items {
		subj, pred := itemSubjectPredicate(s.Items[d])
		truth, ok := w.TrueValueOf(subj, pred)
		if !ok {
			continue
		}
		for _, v := range s.ItemValues.At(d) {
			p, covered := res.TripleProb(d, v)
			if !covered {
				continue
			}
			vItems = append(vItems, metrics.Labeled{Pred: p, True: s.Values[v] == truth})
		}
	}
	ev.SqV = metrics.SquareLoss(vItems)

	// SqC over candidate (w,d,v) triples against provided-truth.
	var cItems []metrics.Labeled
	for ti, tr := range s.Triples {
		subj, pred := itemSubjectPredicate(s.Items[tr.D])
		site := s.Sources[tr.W]
		provided := w.ProvidedTruth(site, subj, pred, s.Values[tr.V])
		cItems = append(cItems, metrics.Labeled{Pred: res.CProbAt(ti), True: provided})
	}
	ev.SqC = metrics.SquareLoss(cItems)

	// SqA over sources.
	var pred, truth []float64
	for wi, site := range s.Sources {
		a, ok := w.TrueAccuracy[site]
		if !ok {
			continue
		}
		pred = append(pred, res.AAt(wi))
		truth = append(truth, a)
	}
	ev.SqA = sqLoss(pred, truth)
	return ev
}

// evalSingleSynthetic computes SqV/SqA for a single-layer result. The
// single-layer model has no extraction-correctness layer, so SqC is set to
// the loss of always predicting 1 on extracted triples (every extraction is
// assumed provided) — matching how the paper's Figure 3 shows a single
// (flat, implicit) line for SINGLELAYER.
func evalSingleSynthetic(w *synthetic.World, s *triple.Snapshot, res *fusion.Result) SynthEval {
	var ev SynthEval
	var vItems []metrics.Labeled
	for d := range s.Items {
		subj, pred := itemSubjectPredicate(s.Items[d])
		truth, ok := w.TrueValueOf(subj, pred)
		if !ok {
			continue
		}
		if !res.CoveredItem[d] {
			continue
		}
		for k, v := range s.ItemValues.At(d) {
			vItems = append(vItems, metrics.Labeled{Pred: res.ValueProb[d][k], True: s.Values[v] == truth})
		}
	}
	ev.SqV = metrics.SquareLoss(vItems)

	// Implicit C=1 for every extracted triple.
	var cItems []metrics.Labeled
	seen := make(map[string]bool)
	for _, o := range s.Obs {
		subj, pred := itemSubjectPredicate(s.Items[o.D])
		site := provenanceWebsite(s.Sources[o.W])
		key := site + "\x1f" + s.Items[o.D] + "\x1f" + s.Values[o.V]
		if seen[key] {
			continue
		}
		seen[key] = true
		provided := w.ProvidedTruth(site, subj, pred, s.Values[o.V])
		cItems = append(cItems, metrics.Labeled{Pred: 1, True: provided})
	}
	ev.SqC = metrics.SquareLoss(cItems)

	// SqA: "SINGLELAYER considers all extracted triples when computing
	// source accuracy" (§5.2.2) — average the posterior of every triple
	// extracted from the website.
	agg := fusion.AggregateSourceAccuracy(s, res, func(wi int) string {
		return provenanceWebsite(s.Sources[wi])
	})
	var pred, truth []float64
	for site, a := range w.TrueAccuracy {
		est, ok := agg[site]
		if !ok {
			continue
		}
		pred = append(pred, est)
		truth = append(truth, a)
	}
	ev.SqA = sqLoss(pred, truth)
	return ev
}

// provenanceWebsite extracts the website from a provenance label
// (extractor \x1f website \x1f predicate \x1f pattern).
func provenanceWebsite(label string) string {
	parts := strings.SplitN(label, "\x1f", 3)
	if len(parts) < 2 {
		return label
	}
	return parts[1]
}

func sqLoss(pred, truth []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var sum float64
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return sum / float64(len(pred))
}

// runSyntheticOnce generates one world and evaluates both models on it.
func runSyntheticOnce(p synthetic.Params) (single, multi SynthEval, err error) {
	w, err := synthetic.Generate(p)
	if err != nil {
		return single, multi, err
	}

	// Multi-layer at website/extractor granularity.
	ms := w.Compile()
	mOpt := core.DefaultOptions()
	// The synthetic generative model matches per-source attempt semantics.
	mOpt.Scope = core.ScopeAttemptedSources
	mOpt.N = p.DomainSize
	mRes, err := core.Run(ms, mOpt)
	if err != nil {
		return single, multi, err
	}
	multi = evalMultiSynthetic(w, ms, mRes)

	// Single-layer over (extractor, website, predicate, pattern)
	// provenances with the paper's single-layer settings (n=100).
	ss := w.Dataset.Compile(triple.CompileOptions{
		SourceKey:    triple.ProvenanceKey,
		ExtractorKey: triple.ExtractorKeyName,
	})
	sOpt := fusion.DefaultOptions()
	sOpt.MinSupport = 1
	sRes, err := fusion.Run(ss, sOpt)
	if err != nil {
		return single, multi, err
	}
	single = evalSingleSynthetic(w, ss, sRes)
	return single, multi, nil
}

// Fig3Row is one x-position of Figure 3: losses at a given extractor count.
type Fig3Row struct {
	NumExtractors                   int
	SingleSqV, SingleSqC, SingleSqA float64
	MultiSqV, MultiSqC, MultiSqA    float64
}

// Fig3 reproduces Figure 3: SqV, SqC and SqA as the number of extractors
// grows from 1 to maxExtractors, averaged over runs repetitions.
func Fig3(maxExtractors, runs int, seed int64) ([]Fig3Row, error) {
	var rows []Fig3Row
	for ne := 1; ne <= maxExtractors; ne++ {
		var row Fig3Row
		row.NumExtractors = ne
		for r := 0; r < runs; r++ {
			p := synthetic.DefaultParams()
			p.NumExtractors = ne
			p.Seed = seed + int64(r)*1000 + int64(ne)
			s, m, err := runSyntheticOnce(p)
			if err != nil {
				return nil, err
			}
			row.SingleSqV += s.SqV
			row.SingleSqC += s.SqC
			row.SingleSqA += s.SqA
			row.MultiSqV += m.SqV
			row.MultiSqC += m.SqC
			row.MultiSqA += m.SqA
		}
		f := float64(runs)
		row.SingleSqV /= f
		row.SingleSqC /= f
		row.SingleSqA /= f
		row.MultiSqV /= f
		row.MultiSqC /= f
		row.MultiSqA /= f
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4Param selects which knob Figure 4 sweeps.
type Fig4Param int

const (
	VaryRecall Fig4Param = iota
	VaryPrecision
	VaryAccuracy
	VaryCoverage // δ; the paper notes its plot resembles the recall sweep
)

func (p Fig4Param) String() string {
	switch p {
	case VaryRecall:
		return "R"
	case VaryPrecision:
		return "P"
	case VaryAccuracy:
		return "A"
	case VaryCoverage:
		return "delta"
	default:
		return "?"
	}
}

// Fig4Row is one x-position of Figure 4 for the multi-layer model.
type Fig4Row struct {
	Param Fig4Param
	Value float64
	SynthEval
}

// Fig4 reproduces Figure 4: multi-layer losses while sweeping one quality
// parameter over {0.1, ..., 0.9}, averaged over runs repetitions.
func Fig4(param Fig4Param, runs int, seed int64) ([]Fig4Row, error) {
	var rows []Fig4Row
	for v := 0.1; v < 0.95; v += 0.2 {
		var agg SynthEval
		for r := 0; r < runs; r++ {
			p := synthetic.DefaultParams()
			p.Seed = seed + int64(r)*1000 + int64(v*100)
			switch param {
			case VaryRecall:
				p.ExtractorRecall = v
			case VaryPrecision:
				p.ComponentPrecision = v
			case VaryAccuracy:
				p.SourceAccuracy = v
			case VaryCoverage:
				p.ExtractorCoverage = v
			}
			_, m, err := runSyntheticOnce(p)
			if err != nil {
				return nil, err
			}
			agg.SqV += m.SqV
			agg.SqC += m.SqC
			agg.SqA += m.SqA
		}
		f := float64(runs)
		rows = append(rows, Fig4Row{
			Param: param, Value: v,
			SynthEval: SynthEval{SqV: agg.SqV / f, SqC: agg.SqC / f, SqA: agg.SqA / f},
		})
	}
	return rows, nil
}
