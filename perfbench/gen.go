package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"kbt"
	"kbt/internal/websim"
)

// batch is one pre-marshalled POST /v1/ingest request.
type batch struct {
	key  string           // Idempotency-Key, unique within a run
	body []byte           // the JSON array the server decodes
	recs []kbt.Extraction // the same records, for set-up validation
}

// inputs is everything a workload feeds the program: the preload ingested
// before the window, the stream of keyed batches posted during it, the
// names the read mix asks about, and the generator's truth.
type inputs struct {
	preload []kbt.Extraction
	stream  []batch
	// sources and items are the values the read mix cycles through for
	// /v1/source?name= and /v1/fused?item=; the run replaces sources with
	// the names the served generation has.
	sources []string
	items   []string
	// truth reports whether (subject, predicate, object) is true in the
	// generator's world.
	truth func(subj, pred, obj string) bool
	// tier maps an item-local website to good|mid|bad; nil on websim.
	tier map[string]string
}

// itemLocal generates the item-local corpus: each data item has its own
// predicate and is witnessed by four of 24 websites — two good, one mid,
// one bad — read by three extractors, one of which hallucinates an extra
// value on a third of the items. A batch of such records touches one or
// two items, so it stays inside one or two shards. The seed picks the
// witness sites and where the error pattern starts; the pattern itself is
// fixed, so answer quality does not vary with the seed.
type itemLocal struct {
	rng   *rand.Rand
	next  int // the next item number
	phase int
}

const goodSites, midSites, badSites = 12, 6, 6

func newItemLocal(seed int64) *itemLocal {
	g := &itemLocal{rng: rand.New(rand.NewPCG(uint64(seed), 0x6b6274))}
	g.phase = g.rng.IntN(300)
	return g
}

// claim is the object witness slot w (good, good, mid, bad) states for the
// item at pattern position q in [0, 100). Each good site errs on 3 items
// of 100, the mid site on 30 and the bad site on 70, with two wrong values.
// Where the errors coincide the truth is outvoted, so a fixed share of the
// items is hard whatever the seed.
func claim(w, q int, subj string) string {
	var wrong bool
	alt := 0
	switch w {
	case 0:
		wrong = q < 3
	case 1:
		wrong = q >= 50 && q < 53
	case 2:
		wrong, alt = q%10 < 3, q%2
	default:
		wrong, alt = q%10 < 7, (q/10)%2
	}
	if !wrong {
		return "v" + subj
	}
	return fmt.Sprintf("w%d%s", alt, subj)
}

func itemLocalSite(tier string, k int) string { return fmt.Sprintf("%s%02d.example", tier, k) }

func itemLocalTiers() map[string]string {
	m := make(map[string]string)
	for tier, n := range map[string]int{"good": goodSites, "mid": midSites, "bad": badSites} {
		for k := 0; k < n; k++ {
			m[itemLocalSite(tier, k)] = tier
		}
	}
	return m
}

// item appends the extractions of the next item to out.
func (g *itemLocal) item(out []kbt.Extraction) []kbt.Extraction {
	i := g.next
	g.next++
	subj := fmt.Sprintf("S%07d", i)
	pred := fmt.Sprintf("p%07d", i)
	g1 := g.rng.IntN(goodSites)
	g2 := (g1 + 1 + g.rng.IntN(goodSites-1)) % goodSites
	witness := []string{
		itemLocalSite("good", g1),
		itemLocalSite("good", g2),
		itemLocalSite("mid", g.rng.IntN(midSites)),
		itemLocalSite("bad", g.rng.IntN(badSites)),
	}
	for w, site := range witness {
		obj := claim(w, (i+g.phase)%100, subj)
		for e, conf := range []float64{1, 0.9, 0.8} {
			out = append(out, kbt.Extraction{
				Extractor: fmt.Sprintf("E%d", e+1), Pattern: "pat",
				Website: site, Page: site + "/" + subj,
				Subject: subj, Predicate: pred, Object: obj, Confidence: conf,
			})
		}
	}
	if (i+g.phase)%3 == 0 {
		site := witness[g.rng.IntN(len(witness))]
		out = append(out, kbt.Extraction{
			Extractor: "E3", Pattern: "pat", Website: site, Page: site + "/" + subj,
			Subject: subj, Predicate: pred, Object: "h" + subj, Confidence: 0.8,
		})
	}
	return out
}

// records returns at least n fresh extractions, whole items only.
func (g *itemLocal) records(n int) []kbt.Extraction {
	out := make([]kbt.Extraction, 0, n+16)
	for len(out) < n {
		out = g.item(out)
	}
	return out
}

func itemLocalTruth(subj, _, obj string) bool { return obj == "v"+subj }

// chunk cuts recs into keyed, pre-marshalled batches of size records (the
// last may be shorter).
func chunk(prefix string, recs []kbt.Extraction, size int) ([]batch, error) {
	var out []batch
	for i := 0; i < len(recs); i += size {
		part := recs[i:min(i+size, len(recs))]
		body, err := json.Marshal(part)
		if err != nil {
			return nil, err
		}
		out = append(out, batch{key: fmt.Sprintf("%s-%07d", prefix, len(out)), body: body, recs: part})
	}
	return out, nil
}

// genItemLocal builds an item-local workload: preload records, then stream
// batches of batchSize records made of fresh items.
func genItemLocal(seed int64, preload, streamBatches, batchSize int) (*inputs, error) {
	g := newItemLocal(seed)
	in := &inputs{preload: g.records(preload), truth: itemLocalTruth, tier: itemLocalTiers()}
	stream := g.records(streamBatches * batchSize)[:streamBatches*batchSize]
	var err error
	if in.stream, err = chunk(fmt.Sprintf("s%d", seed), stream, batchSize); err != nil {
		return nil, err
	}
	for site := range in.tier {
		in.sources = append(in.sources, site)
	}
	sort.Strings(in.sources)
	return in, nil
}

// genBroadWeb builds the websim workload from one fixed world at the given
// scale. A fixed share of its pages, drawn once, is held out: they fill a
// stream of streamBatches batches of batchSize records, and the rest is
// preloaded. The stream follows crawl order (site, then page) from a
// seeded starting site, so the seed changes every batch and the order in
// which the late pages arrive, while the world, the split and with them
// the final corpus and its difficulty stay the same. Every stream batch
// spans many items, so it reaches every shard.
func genBroadWeb(seed int64, scale float64, streamBatches, batchSize int) (*inputs, error) {
	w, err := websim.Generate(websim.DefaultParams().Scale(scale))
	if err != nil {
		return nil, err
	}
	pages := make(map[string][]kbt.Extraction)
	var order []string
	for _, r := range w.Dataset.Records {
		if _, ok := pages[r.Page]; !ok {
			order = append(order, r.Page)
		}
		pages[r.Page] = append(pages[r.Page], kbt.Extraction{
			Extractor: r.Extractor, Pattern: r.Pattern, Website: r.Website, Page: r.Page,
			Subject: r.Subject, Predicate: r.Predicate, Object: r.Object, Confidence: r.Confidence,
		})
	}
	split := rand.New(rand.NewPCG(1, 0x776562))
	split.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	in := &inputs{truth: func(s, p, o string) bool {
		t, ok := w.TrueObject(s, p)
		return ok && t == o
	}}
	want := streamBatches * batchSize
	var stream []kbt.Extraction
	for _, pg := range order {
		if len(stream) < want {
			stream = append(stream, pages[pg]...)
		} else {
			in.preload = append(in.preload, pages[pg]...)
		}
	}
	if len(stream) < want {
		return nil, fmt.Errorf("the websim world has %d records, the workload streams %d", len(stream), want)
	}
	crawlOrder(in.preload)
	crawlOrder(stream)
	start := rand.New(rand.NewPCG(uint64(seed), 0x776562)).IntN(len(stream))
	for start > 0 && stream[start].Website == stream[start-1].Website {
		start-- // begin the crawl at a site boundary
	}
	stream = append(stream[start:], stream[:start]...)[:want]
	if in.stream, err = chunk(fmt.Sprintf("w%d", seed), stream, batchSize); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, r := range in.preload {
		if it := r.Subject + "|" + r.Predicate; !seen[it] {
			seen[it] = true
			in.items = append(in.items, it)
		}
	}
	return in, nil
}

// crawlOrder sorts records by site, then page, keeping each page's order.
func crawlOrder(recs []kbt.Extraction) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Website != recs[j].Website {
			return recs[i].Website < recs[j].Website
		}
		return recs[i].Page < recs[j].Page
	})
}
