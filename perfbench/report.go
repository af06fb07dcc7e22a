package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"kbt"
	"kbt/internal/metrics"
	"kbt/internal/server"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer list every metric the benchmark reports, in order;
// BENCHMARK.json declares the same names and units. The end-to-end metrics
// are the ones that hold still when the machine does not: on a 2-CPU VM
// whose hypervisor steals up to a fifth of the CPU and shares its disk,
// every latency and the CPU time per record swing by 20-60% of their
// median between quiet and busy stretches, more than any end-to-end bound
// can hold. Those are per-layer metrics ("latency.", runtime.cpu_...).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ingest_records_per_s", "rec/s"},
	{"alloc_kb_per_record", "KiB"},
	{"live_heap_mb", "MiB"},
	{"write_bytes_per_record", "B"},
	{"sqv", "mse"},
}

// latencyMetrics are the per-layer end-to-end times every report also
// prints.
var latencyMetrics = []metricSpec{
	{"latency.ack_p50_ms", "ms"}, {"latency.visible_p50_ms", "ms"}, {"latency.query_p50_ms", "ms"},
	{"latency.ack_p99_ms", "ms"}, {"latency.visible_p99_ms", "ms"}, {"latency.query_p99_ms", "ms"},
	{"latency.recovery_s", "s"}, {"runtime.cpu_us_per_record", "us"},
}

var queryMethods = []string{"top_sources", "top_triples", "current", "fused", "copy_deps"}

var perLayer = func() []metricSpec {
	m := append([]metricSpec{}, latencyMetrics...)
	m = append(m, []metricSpec{
		{"gen.lag_p99_ms", "ms"}, {"gen.ingest_attempted", "count"}, {"gen.query_attempted", "count"},
		{"gen.failed_frac", "ratio"},
		{"net.client_overhead_ms_p50", "ms"},
		{"server.ingest_ms_p50", "ms"}, {"server.ingest_ms_p99", "ms"},
		{"server.ingest_wait_ms_p50", "ms"}, {"server.ingest_wait_ms_p99", "ms"},
		{"server.query_self_ms_p50", "ms"},
		{"server.rejected_429", "count"}, {"server.rejected_503", "count"},
		{"durable.ingest_ms_p50", "ms"}, {"durable.ingest_ms_p99", "ms"},
		{"durable.refresh_ms_p50", "ms"}, {"durable.refresh_ms_p99", "ms"},
		{"durable.checkpoint_ms_p50", "ms"}, {"durable.checkpoints", "count"},
		{"durable.compaction_ms_max", "ms"}, {"durable.compactions", "count"},
		{"durable.compaction_stall_ms", "ms"},
		{"durable.recovery_ms", "ms"}, {"durable.recovery_ms_per_batch", "ms"},
		{"engine.first_pass_shard_frac", "ratio"}, {"engine.settled_shard_frac", "ratio"},
		{"engine.partial_shard_frac", "ratio"}, {"engine.escalations_per_refresh", "count"},
		{"engine.iterations_per_refresh", "count"}, {"engine.unconverged_frac", "ratio"},
		{"engine.agg_full_frac", "ratio"}, {"engine.noop_frac", "ratio"},
		{"engine.refresh_alloc_mb_p50", "MiB"},
		{"copydetect.pairs", "count"}, {"fusion.items_per_refresh", "count"},
		{"fusion.iterations_per_refresh", "count"},
	}...)
	for _, q := range queryMethods {
		m = append(m, metricSpec{"query." + q + "_us_p50", "us"}, metricSpec{"query." + q + "_us_p99", "us"})
	}
	return append(m,
		metricSpec{"query.first_on_generation_us_p50", "us"}, metricSpec{"query.memo_hit_frac", "ratio"},
		metricSpec{"runtime.gc_cycles", "count"}, metricSpec{"runtime.gc_pause_ms", "ms"},
		metricSpec{"runtime.heap_peak_mb", "MiB"},
		metricSpec{"trace.overhead_frac_ack_p50", "ratio"}, metricSpec{"trace.overhead_frac_cpu", "ratio"},
		metricSpec{"path.lag_ms_p50", "ms"}, metricSpec{"path.client_self_ms_p50", "ms"},
		metricSpec{"path.server_self_ms_p50", "ms"}, metricSpec{"path.durable_self_ms_p50", "ms"},
		metricSpec{"path.accounted_frac", "ratio"},
	)
}()

const mib = 1 << 20

// report collects one run's raw observations and turns them into metrics.
type report struct {
	workload *workload
	seed     int64
	window   time.Duration
	trace    bool
	tr       *tracer
	fsType   string

	setups                         []float64
	winStart, winEnd               time.Duration
	slices                         []counters // at every slice boundary of the window
	heapPeak                       uint64
	liveHeap                       uint64
	streamBatches, preloaded       int
	ingest, queries                []sample
	marks                          []refreshMark
	shim                           *shim
	recoveryS, recoveryMS          float64
	sqv                            float64
	spanPath                       string
	correct                        bool
	checks                         []string // "ok <check>" or "FAILED <why>"
	metrics                        map[string]float64
	attempted, failed              int
	ackLat, visLat, queryLat, lags []float64
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, "FAILED "+fmt.Sprintf(format, args...))
}

func (r *report) pass(name string) { r.checks = append(r.checks, "ok "+name) }

func (r *report) inWindow(s sample, from, to time.Duration) bool { return s.due >= from && s.due < to }

// check runs the correctness checks on the drained engine.
func (r *report) check(d *kbt.DurableEngine, in *inputs) error {
	acked := 0
	for _, s := range r.ingest {
		if s.ok() {
			acked += s.records
		}
	}
	if got := d.Len() - r.preloaded; got != acked {
		r.fail("acked-records: %d acked, engine holds %d beyond the preload", acked, got)
	} else {
		r.pass("acked-records: every acked batch applied exactly once")
	}
	bad := 0
	for _, s := range r.queries {
		if s.ok() && !decodes(s.route, s.body) {
			bad++
		}
	}
	if bad > 0 {
		r.fail("query-bodies: %d 2xx bodies do not decode", bad)
	} else {
		r.pass("query-bodies: every 2xx body decodes")
	}
	res, ok := d.Current()
	if !ok {
		return fmt.Errorf("no generation after the window")
	}
	var lab []metrics.Labeled
	for _, t := range res.Triples() {
		lab = append(lab, metrics.Labeled{Pred: t.Probability, True: in.truth(t.Subject, t.Predicate, t.Object)})
	}
	r.sqv = metrics.SquareLoss(lab)
	if in.tier != nil {
		worstGood, bestBad := 2.0, -1.0
		for _, s := range res.Sources() {
			switch in.tier[s.Name] {
			case "good":
				worstGood = min(worstGood, s.KBT)
			case "bad":
				bestBad = max(bestBad, s.KBT)
			}
		}
		if worstGood <= bestBad {
			r.fail("tier-ranking: a bad site (KBT %.4f) ranks with or above a good one (%.4f)", bestBad, worstGood)
		} else {
			r.pass("tier-ranking: every good site above every bad site")
		}
	}
	return nil
}

// decodes reports whether a 2xx body parses as its route's reply type.
func decodes(route string, body []byte) bool {
	var v any
	switch {
	case strings.HasPrefix(route, "/v1/top-sources"):
		v = new([]kbt.Source)
	case strings.HasPrefix(route, "/v1/top-triples"):
		v = new([]kbt.TripleVerdict)
	case strings.HasPrefix(route, "/v1/source"):
		v = new(kbt.Source)
	case strings.HasPrefix(route, "/v1/fused"):
		v = new(kbt.FusedItem)
	case strings.HasPrefix(route, "/v1/copy-deps"):
		v = new([]kbt.CopyDependence)
	default:
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil
}

// recover restarts the engine restarts times: each restart closes it,
// reopens its directory and serves /v1/top-sources?k=0, which must be
// byte-identical to the body before the first close. recovery_s is the
// median restart until that query is served.
func (r *report) recover(dir string, opt kbt.EngineOptions, d *kbt.DurableEngine, srv *server.Server) error {
	pre := httptest.NewRecorder()
	srv.ServeHTTP(pre, httptest.NewRequest(http.MethodGet, "/v1/top-sources?k=0", nil))
	if pre.Code != http.StatusOK {
		return fmt.Errorf("pre-close top-sources: status %d", pre.Code)
	}
	var open, served []float64
	same := true
	for k := 0; k < restarts; k++ {
		if err := d.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		t0 := time.Now()
		var err error
		if d, err = kbt.OpenDurable(dir, opt, kbt.DurableOptions{}); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		open = append(open, ms(time.Since(t0)))
		body, status, err := serveOnce(d, dir)
		if err != nil {
			d.Close()
			return err
		}
		served = append(served, time.Since(t0).Seconds())
		same = same && status == http.StatusOK && body == pre.Body.String()
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	r.recoveryMS, r.recoveryS = median(open), median(served)
	if !same {
		r.fail("recovery: /v1/top-sources?k=0 after a restart differs from the pre-close body")
	} else {
		r.pass("recovery: /v1/top-sources?k=0 byte-identical after every restart")
	}
	return nil
}

// serveOnce starts a server on d and returns its first
// /v1/top-sources?k=0 response.
func serveOnce(d *kbt.DurableEngine, dir string) (string, int, error) {
	srv := server.New(newShim(d, dir, newTracer(), 0), server.Options{})
	defer srv.Close()
	hs, base, err := listen(srv)
	if err != nil {
		return "", 0, err
	}
	defer shutdown(hs)
	c := &conn{hc: newClient(), base: base, tr: newTracer()}
	defer c.hc.CloseIdleConnections()
	s := c.do(context.Background(), request{method: http.MethodGet, path: "/v1/top-sources?k=0", header: requestHeader, id: "recovery"}, 0, true)
	return string(s.body), s.status, nil
}

// compute derives every metric from the observations.
func (r *report) compute() {
	r.metrics = make(map[string]float64)
	r.correct = true
	for _, c := range r.checks {
		if strings.HasPrefix(c, "FAILED") {
			r.correct = false
		}
	}
	win := func(s sample) bool { return r.inWindow(s, r.winStart, r.winEnd) }
	for _, s := range r.ingest {
		if !win(s) {
			continue
		}
		r.attempted++
		r.lags = append(r.lags, ms(s.sent-s.due))
		if !s.ok() {
			r.failed++
			continue
		}
		r.ackLat = append(r.ackLat, ms(s.done-s.start))
	}
	queryWin := win
	if r.workload.queryRate == 0 {
		queryWin = func(sample) bool { return true }
	}
	for _, s := range r.queries {
		if !queryWin(s) {
			continue
		}
		r.attempted++
		r.lags = append(r.lags, ms(s.sent-s.due))
		if !s.ok() {
			r.failed++
			continue
		}
		r.queryLat = append(r.queryLat, ms(s.done-s.start))
	}
	r.visLat = r.visibility(r.winStart, r.winEnd)
	acked := r.ackedIn(r.winStart, r.winEnd)
	perRec := func(v float64) float64 { return v / float64(max(acked, 1)) }
	m := r.metrics
	m["setup_s"] = median(r.setups)
	m["latency.ack_p50_ms"], m["latency.ack_p99_ms"] = median(r.ackLat), quantile(r.ackLat, 0.99)
	m["latency.visible_p50_ms"], m["latency.visible_p99_ms"] = median(r.visLat), quantile(r.visLat, 0.99)
	m["latency.query_p50_ms"], m["latency.query_p99_ms"] = median(r.queryLat), quantile(r.queryLat, 0.99)
	m["ingest_records_per_s"] = r.ingestRate()
	m["latency.recovery_s"] = r.recoveryS
	c0, c1 := r.slices[0], r.slices[len(r.slices)-1]
	m["runtime.cpu_us_per_record"] = perRec(us(c1.cpu - c0.cpu))
	m["alloc_kb_per_record"] = perRec(float64(c1.allocs-c0.allocs) / 1024)
	m["live_heap_mb"] = float64(r.liveHeap) / mib
	m["write_bytes_per_record"] = perRec(float64(c1.writeBytes - c0.writeBytes))
	m["sqv"] = r.sqv
	if r.trace {
		r.computeLayers()
	}
}

// ackedIn counts the records acked between from and to.
func (r *report) ackedIn(from, to time.Duration) int {
	n := 0
	for _, s := range r.ingest {
		if s.ok() && s.done >= from && s.done < to {
			n += s.records
		}
	}
	return n
}

// ingestRate is the records of the window's batches that were acked,
// divided by the time from the window's start to the last of those acks:
// the offered rate while the server keeps up, less once it falls behind.
func (r *report) ingestRate() float64 {
	n, last := 0, r.winStart
	for _, s := range r.ingest {
		if s.ok() && r.inWindow(s, r.winStart, r.winEnd) {
			n += s.records
			last = max(last, s.done)
		}
	}
	if last <= r.winStart {
		return 0
	}
	return float64(n) / (last - r.winStart).Seconds()
}

// visibility times each batch due in [from, to) until the return of the
// first Refresh that began once the engine held it. Batches are applied in
// ack order (one lane), so a batch is in the engine once Len reaches the
// preload plus the records acked up to and including it.
func (r *report) visibility(from, to time.Duration) []float64 {
	acked := make([]sample, 0, len(r.ingest))
	for _, s := range r.ingest {
		if s.ok() {
			acked = append(acked, s)
		}
	}
	sort.SliceStable(acked, func(i, j int) bool { return acked[i].done < acked[j].done })
	var out []float64
	cum := r.preloaded
	m := 0
	for _, s := range acked {
		cum += s.records
		for m < len(r.marks) && (!r.marks[m].ok || r.marks[m].lenAtStart < cum) {
			m++
		}
		if m == len(r.marks) {
			break
		}
		if r.inWindow(s, from, to) {
			out = append(out, ms(r.marks[m].end-s.start))
		}
	}
	return out
}

// computeLayers derives the per-layer metrics from the traced half.
func (r *report) computeLayers() {
	m := r.metrics
	spans := r.tr.all()
	byName := make(map[string][]span)
	serverOf := make(map[string]span) // request id -> server span
	durableOf := make(map[string]span)
	children := make(map[int64]time.Duration) // query server span -> engine time
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		switch {
		case s.Name == "server.ingest" || s.Name == "server.query":
			serverOf[s.Req] = s
		case s.Name == "durable.ingest":
			durableOf[s.Req] = s
		case strings.HasPrefix(s.Name, "query."):
			children[s.Parent] += s.dur()
		}
	}
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, ms(s.dur()))
		}
		return out
	}

	// gen: the whole window.
	m["gen.lag_p99_ms"] = quantile(r.lags, 0.99)
	nIngest, nQuery := 0, 0
	for _, s := range r.ingest {
		if r.inWindow(s, r.winStart, r.winEnd) {
			nIngest++
		}
	}
	nQuery = r.attempted - nIngest
	m["gen.ingest_attempted"], m["gen.query_attempted"] = float64(nIngest), float64(nQuery)
	m["gen.failed_frac"] = float64(r.failed) / float64(max(r.attempted, 1))

	// net, server and the ingest blocking path: requests due in traced
	// slices. Along an ingest's path, the gen lag, the client's self time
	// (client span minus ServeHTTP), the server's (ServeHTTP minus the
	// durable ingest) and the durable ingest partition its ack latency.
	var overhead, wait []float64
	var path []pathSplit
	for _, s := range append(append([]sample(nil), r.ingest...), r.queries...) {
		sv, ok := serverOf[s.req]
		if !ok || !s.ok() || !r.traced(s.due) {
			continue
		}
		client := s.done - s.sent
		overhead = append(overhead, ms(client-sv.dur()))
		dv, ok := durableOf[s.req]
		if !ok {
			continue
		}
		wait = append(wait, ms(dv.Start-sv.Start))
		path = append(path, pathSplit{ack: s.done - s.start,
			parts: [4]time.Duration{s.sent - s.start, client - sv.dur(), sv.dur() - dv.dur(), dv.dur()}})
	}
	for i, v := range medianBand(path) {
		m[pathMetrics[i]] = v
	}
	m["net.client_overhead_ms_p50"] = median(overhead)
	ing := durs("server.ingest")
	m["server.ingest_ms_p50"], m["server.ingest_ms_p99"] = median(ing), quantile(ing, 0.99)
	m["server.ingest_wait_ms_p50"], m["server.ingest_wait_ms_p99"] = median(wait), quantile(wait, 0.99)
	var qself []float64
	for _, s := range byName["server.query"] {
		qself = append(qself, ms(s.dur()-children[s.ID]))
	}
	m["server.query_self_ms_p50"] = median(qself)
	for _, name := range []string{"server.ingest", "server.query"} {
		for _, s := range byName[name] {
			switch s.Status {
			case http.StatusTooManyRequests:
				m["server.rejected_429"]++
			case http.StatusServiceUnavailable:
				m["server.rejected_503"]++
			}
		}
	}
	// durable
	di := durs("durable.ingest")
	m["durable.ingest_ms_p50"], m["durable.ingest_ms_p99"] = median(di), quantile(di, 0.99)
	rf := durs("durable.refresh")
	m["durable.refresh_ms_p50"], m["durable.refresh_ms_p99"] = median(rf), quantile(rf, 0.99)
	ck := append(durs("durable.checkpoint"), durs("durable.compaction")...)
	m["durable.checkpoint_ms_p50"], m["durable.checkpoints"] = median(ck), float64(len(ck))
	m["durable.compaction_ms_max"] = quantile(durs("durable.compaction"), 1)
	var stall time.Duration
	for _, c := range byName["durable.compaction"] {
		for req, dv := range durableOf {
			if sv, ok := serverOf[req]; ok {
				stall += overlap(sv.Start, dv.Start, c.Start, c.End)
			}
		}
	}
	m["durable.compaction_stall_ms"] = ms(stall)
	m["durable.recovery_ms"] = r.recoveryMS
	r.shim.mu.Lock()
	for _, t := range r.shim.compactedAt {
		if t >= r.winStart && t < r.winEnd {
			m["durable.compactions"]++
		}
	}
	replayed := max(r.shim.batchesSinceCompaction, 1)
	stats := append([]kbt.RefreshStats(nil), r.shim.stats...)
	r.shim.mu.Unlock()
	m["durable.recovery_ms_per_batch"] = r.recoveryMS / float64(replayed)

	// engine, copydetect, fusion: RefreshStats of the traced refreshes.
	var n, noop, aggFull, aggAll float64
	for _, st := range stats {
		if st.NoOp {
			noop++
			continue
		}
		n++
		tot := float64(max(st.TotalShards, 1))
		m["engine.first_pass_shard_frac"] += float64(st.FirstPassShards) / tot
		m["engine.settled_shard_frac"] += float64(st.SettledShards) / tot
		m["engine.partial_shard_frac"] += float64(st.PartialShards) / tot
		m["engine.escalations_per_refresh"] += float64(st.Escalations)
		m["engine.iterations_per_refresh"] += float64(st.Iterations)
		if !st.Converged {
			m["engine.unconverged_frac"]++
		}
		aggFull += float64(st.AggFullSteps)
		aggAll += float64(st.AggFullSteps + st.AggDeltaSteps)
		m["fusion.items_per_refresh"] += float64(st.FusedItems)
		m["fusion.iterations_per_refresh"] += float64(st.FusionIterations)
	}
	for _, k := range []string{"engine.first_pass_shard_frac", "engine.settled_shard_frac", "engine.partial_shard_frac",
		"engine.escalations_per_refresh", "engine.iterations_per_refresh", "engine.unconverged_frac",
		"fusion.items_per_refresh", "fusion.iterations_per_refresh"} {
		m[k] /= max(n, 1)
	}
	m["engine.agg_full_frac"] = aggFull / max(aggAll, 1)
	m["engine.noop_frac"] = noop / float64(max(len(stats), 1))
	if len(stats) > 0 {
		m["copydetect.pairs"] = float64(stats[len(stats)-1].CopyPairs)
	}
	var alloc []float64
	for _, s := range byName["durable.refresh"] {
		alloc = append(alloc, float64(s.AllocBytes)/mib)
	}
	m["engine.refresh_alloc_mb_p50"] = median(alloc)

	// query
	var first []float64
	memo, memoHit := 0.0, 0.0
	for _, q := range queryMethods {
		var d []float64
		for _, s := range byName["query."+q] {
			d = append(d, us(s.dur()))
			if s.First {
				first = append(first, us(s.dur()))
			}
			if q == "top_sources" || q == "top_triples" {
				memo++
				if !s.First {
					memoHit++
				}
			}
		}
		m["query."+q+"_us_p50"], m["query."+q+"_us_p99"] = median(d), quantile(d, 0.99)
	}
	m["query.first_on_generation_us_p50"] = median(first)
	m["query.memo_hit_frac"] = memoHit / max(memo, 1)

	// runtime: the traced slices.
	var tracedCPU, untracedCPU time.Duration
	for k := 0; k+1 < len(r.slices); k++ {
		a, b := r.slices[k], r.slices[k+1]
		if k%2 == 1 {
			m["runtime.gc_cycles"] += float64(b.gcCycles - a.gcCycles)
			m["runtime.gc_pause_ms"] += ms(b.gcPause - a.gcPause)
			tracedCPU += b.cpu - a.cpu
		} else {
			untracedCPU += b.cpu - a.cpu
		}
	}
	m["runtime.heap_peak_mb"] = float64(r.heapPeak) / mib

	// Trace overhead: traced slices against the untraced ones between them.
	var tracedLat, untracedLat []float64
	tracedRecs, untracedRecs := 0, 0
	for _, s := range r.ingest {
		if !s.ok() || !r.inWindow(s, r.winStart, r.winEnd) {
			continue
		}
		if r.traced(s.due) {
			tracedLat = append(tracedLat, ms(s.done-s.start))
			tracedRecs += s.records
		} else {
			untracedLat = append(untracedLat, ms(s.done-s.start))
			untracedRecs += s.records
		}
	}
	m["trace.overhead_frac_ack_p50"] = median(tracedLat)/median(untracedLat) - 1
	m["trace.overhead_frac_cpu"] = (us(tracedCPU)/float64(max(tracedRecs, 1)))/(us(untracedCPU)/float64(max(untracedRecs, 1))) - 1
}

// traced reports whether t falls in a traced (odd) slice of the window.
func (r *report) traced(t time.Duration) bool {
	return t >= r.winStart && t < r.winEnd && int((t-r.winStart)/slice)%2 == 1
}

// pathSplit is one ingest's ack latency and its blocking-path self times.
type pathSplit struct {
	ack   time.Duration
	parts [4]time.Duration
}

var pathMetrics = []string{"path.lag_ms_p50", "path.client_self_ms_p50", "path.server_self_ms_p50",
	"path.durable_self_ms_p50", "path.accounted_frac"}

// medianBand splits the typical ack: the mean self times of the requests
// whose ack latency lies between the 40th and 60th percentile, and their
// sum as a share of the median ack.
func medianBand(path []pathSplit) []float64 {
	out := make([]float64, len(pathMetrics))
	if len(path) == 0 {
		return out
	}
	sort.Slice(path, func(i, j int) bool { return path[i].ack < path[j].ack })
	band := path[len(path)*4/10 : max(len(path)*6/10, len(path)*4/10+1)]
	sum := 0.0
	for i := range 4 {
		for _, p := range band {
			out[i] += ms(p.parts[i])
		}
		out[i] /= float64(len(band))
		sum += out[i]
	}
	out[4] = sum / ms(path[len(path)/2].ack)
	return out
}

// overlap is the length of [a0,a1) ∩ [b0,b1).
func overlap(a0, a1, b0, b1 time.Duration) time.Duration {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi > lo {
		return hi - lo
	}
	return 0
}

// print writes the human-readable report, then the JSON result line.
func (r *report) print(out io.Writer) {
	r.compute()
	w := r.workload
	mode := "end-to-end"
	specs := endToEnd
	if r.trace {
		mode, specs = "per-layer (traced slices of the window)", perLayer
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d window=%s metrics=%s\n", w.name, r.seed, r.window, mode)
	ingestMode := fmt.Sprintf("open loop %g batches/s on 1 connection", w.ingestRate)
	conns := 2
	if w.ingestRate == 0 {
		ingestMode = fmt.Sprintf("closed loop, %d clients on %d connections", w.burstClients, w.burstClients)
		conns = w.burstClients
	}
	queryMode := fmt.Sprintf("open loop %g/s on 1 connection", w.queryRate)
	if w.queryRate == 0 {
		queryMode = fmt.Sprintf("none in the window; %d closed-loop after it on 1 connection", idleQueries)
	}
	c0, c1 := r.slices[0], r.slices[len(r.slices)-1]
	fmt.Fprintf(out, "# env nproc=%d GOMAXPROCS=%d go=%s datadir_fs=%s fsync=on seed=%d connections=%d gen.lag_p99_ms=%.3f cpu_steal_frac=%.3f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), r.fsType, r.seed, conns, quantile(r.lags, 0.99),
		float64(c1.steal-c0.steal)/float64(max(c1.ticks-c0.ticks, 1)))
	fmt.Fprintf(out, "# offered ingest: %s; reads: %s; stream pool %d batches\n", ingestMode, queryMode, r.streamBatches)
	opt := engineOptions(w)
	fmt.Fprintf(out, "# config engine: website granularity, %d shards, %d iterations, tol %g, min-support %d, copydetect %t, fusion %t; "+
		"server: server.Options{} (1 lane, refresh after every batch, queue 64); durable: checkpoint every %d refreshes, compaction after 256 batches, fsync on; every ingest keyed\n",
		opt.Shards, opt.Iterations, opt.Tol, opt.MinSupport, opt.CopyDetect, opt.Fusion, checkpointEvery)
	fmt.Fprintf(out, "# samples ack=%d visible=%d query=%d attempted=%d failed=%d failed_frac=%g\n",
		len(r.ackLat), len(r.visLat), len(r.queryLat), r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	if !r.trace {
		for _, s := range latencyMetrics {
			fmt.Fprintf(out, "# %-34s %14.6f %s (per-layer)\n", s.name, r.metrics[s.name], s.unit)
		}
	}
	if lag := quantile(r.lags, 0.99); w.ingestRate > 0 && lag >= 1000/w.ingestRate {
		fmt.Fprintf(out, "# WARNING generator lag p99 %.3f ms reaches the ingest send period: the open loop fell behind\n", lag)
	}
	for _, c := range r.checks {
		fmt.Fprintf(out, "# check %s\n", c)
	}
	if r.trace {
		r.printPath(out)
	}
	res := map[string]map[string]any{}
	for _, s := range specs {
		fmt.Fprintf(out, "%-36s %14.6f %s\n", s.name, r.metrics[s.name], s.unit)
		res[s.name] = map[string]any{"value": r.metrics[s.name], "unit": s.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": max(r.attempted, 1), "failed": r.failed, "metrics": res,
	})
	fmt.Fprintln(out, string(line))
}

// printPath prints the ingest blocking path's self times and the span dump.
func (r *report) printPath(out io.Writer) {
	m := r.metrics
	fmt.Fprintf(out, "# ingest blocking path: mean self times of the 40th-60th percentile acks (traced slices):\n")
	for _, row := range [][2]string{
		{"gen lag (due -> send)", "path.lag_ms_p50"},
		{"client + net (client span - ServeHTTP)", "path.client_self_ms_p50"},
		{"server (decode, admission, lane wait, reply)", "path.server_self_ms_p50"},
		{"durable ingest (append, fsync, apply)", "path.durable_self_ms_p50"},
	} {
		fmt.Fprintf(out, "#   %-46s %10.4f ms\n", row[0], m[row[1]])
	}
	fmt.Fprintf(out, "#   sum / traced ack p50 = %.4f\n", m["path.accounted_frac"])
	fmt.Fprintf(out, "# trace overhead: ack p50 %+.4f, cpu/record %+.4f (traced slices vs untraced slices)\n",
		m["trace.overhead_frac_ack_p50"], m["trace.overhead_frac_cpu"])
	fmt.Fprintf(out, "# span dump: %s\n", r.spanPath)
}
