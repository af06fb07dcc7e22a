// Command perfbench is the repository's end-to-end benchmark. It starts the
// real /v1 server (internal/server) on a loopback listener in front of a
// durable engine (kbt.OpenDurable, fsync on, data directory under
// .bench_build in the working directory), drives one seeded workload
// through net/http, checks the answers, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload local-stream --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// window alternates one-second untraced and traced slices; the traced ones
// record spans around each layer's public calls, the metrics are the
// per-layer ones, and the span dump is written to
// .bench_build/spans-<workload>.jsonl.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kbt"
	"kbt/internal/server"
)

// workload is one traffic mix and the inputs that feed it.
type workload struct {
	name string
	// layer6 turns on CopyDetect and Fusion and adds their queries to the
	// read mix.
	layer6 bool
	// ingestRate is the open-loop batch rate; 0 means burstClients
	// closed-loop clients instead.
	ingestRate   float64
	burstClients int
	// queryRate is the open-loop read-mix rate on its own connection; 0
	// means no reads during the window (the read mix then runs closed loop
	// after it, on the idle server).
	queryRate float64
	// itemLocal enables the tier-ranking check.
	itemLocal bool
	gen       func(seed int64, batches int) (*inputs, error)
	// maxBatchRate sizes a closed-loop stream pool: batches per second the
	// pool must be able to feed.
	maxBatchRate float64
}

const (
	warmup      = time.Second // traffic before the window, not measured
	slice       = time.Second // a traced run alternates untraced and traced slices
	idleQueries = 1200        // read-mix requests after a write-only window
	setups      = 5           // set-ups per run; setup_s is their median
	restarts    = 3           // restarts per run; recovery_s is their median
	// chainPosition is where a closed-loop run leaves the checkpoint chain
	// before the restarts: this many batches past the last compaction, so
	// every run's recovery replays the same amount. (An open-loop schedule
	// fixes the position by itself.)
	chainPosition = 128
	preloadBulk   = 10000 // records per preload batch
)

var workloads = []workload{
	{
		name: "local-stream", ingestRate: 20, queryRate: 100, itemLocal: true,
		gen: func(seed int64, batches int) (*inputs, error) {
			return genItemLocal(seed, 100000, batches, 10)
		},
	},
	{
		name: "broad-web", ingestRate: 12.5, queryRate: 100, layer6: true,
		gen: func(seed int64, batches int) (*inputs, error) {
			return genBroadWeb(seed, 1, batches, 20)
		},
	},
	{
		name: "ingest-burst", burstClients: 2, itemLocal: true, maxBatchRate: 700,
		gen: func(seed int64, batches int) (*inputs, error) {
			return genItemLocal(seed, 5000, batches, 10)
		},
	},
}

func main() {
	name := flag.String("workload", "", "workload: local-stream, broad-web or ingest-burst")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports the per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload local-stream|broad-web|ingest-burst, --seconds >= 2, --trace 0|1")
		os.Exit(2)
	}
	r, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print(os.Stdout)
	if !r.correct {
		os.Exit(1)
	}
}

func engineOptions(w *workload) kbt.EngineOptions {
	opt := kbt.DefaultEngineOptions() // website granularity, 8 shards, 5 iterations, min-support 3
	opt.Tol = 1e-4                    // the kbt serve default
	opt.CopyDetect = w.layer6
	opt.Fusion = w.layer6
	return opt
}

// setUp opens a durable engine on an empty dir and brings it to the state
// the window starts from: preload ingested, a cold refresh, a base
// checkpoint.
func setUp(dir string, opt kbt.EngineOptions, preload []kbt.Extraction) (*kbt.DurableEngine, int, error) {
	d, err := kbt.OpenDurable(dir, opt, kbt.DurableOptions{})
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for i := 0; i < len(preload); i += preloadBulk {
		if err := d.IngestKeyed(fmt.Sprintf("preload-%d", n), preload[i:min(i+preloadBulk, len(preload))]...); err != nil {
			d.Close()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
		n++
	}
	if _, err := d.Refresh(); err != nil {
		d.Close()
		return nil, 0, fmt.Errorf("cold refresh: %w", err)
	}
	if err := d.Checkpoint(); err != nil {
		d.Close()
		return nil, 0, fmt.Errorf("base checkpoint: %w", err)
	}
	return d, n, nil
}

// listen serves h on a loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// run executes one benchmark run.
func run(w *workload, seed int64, window time.Duration, traceRun bool) (*report, error) {
	tr := newTracer()
	rep := &report{workload: w, seed: seed, window: window, trace: traceRun, tr: tr}
	scheduled := (warmup + window).Seconds()
	batches := int(math.Ceil(w.ingestRate*scheduled*1.02)) + 8
	if w.ingestRate == 0 {
		batches = int(w.maxBatchRate * scheduled)
	}
	in, err := w.gen(seed, batches)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if w.ingestRate > 0 && len(in.stream) < batches {
		return nil, fmt.Errorf("generate: %d stream batches, the schedule needs %d", len(in.stream), batches)
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep.fsType = fsType(root)

	// Set-up, several times; the last engine serves the window.
	opt := engineOptions(w)
	var d *kbt.DurableEngine
	var dir string
	var baseBatches int
	for k := 0; k < setups; k++ {
		if d != nil {
			d.Close()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(root, fmt.Sprintf("data-%d", k))
		t0 := time.Now()
		if d, baseBatches, err = setUp(dir, opt, in.preload); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	defer d.Close()
	// A generator bug must fail set-up, not show up as failed requests.
	for _, b := range in.stream {
		if err := d.Validate(b.recs...); err != nil {
			return nil, fmt.Errorf("set-up: stream batch %s does not validate: %w", b.key, err)
		}
	}
	// The read mix asks about sources the served generation has.
	srcs, _ := d.TopSources(0)
	in.sources = in.sources[:0]
	for _, s := range srcs {
		in.sources = append(in.sources, s.Name)
	}
	if len(in.sources) == 0 {
		return nil, errors.New("set-up: no sources for the read mix")
	}
	preloaded := d.Len()
	ingest := ingestRequests(in.stream)
	reads := readMix(in, w.layer6)
	rep.streamBatches = len(ingest)
	in.preload, in.stream = nil, nil
	runtime.GC()

	sh := newShim(d, dir, tr, baseBatches)
	srv := server.New(sh, server.Options{})
	var h http.Handler = srv
	if traceRun {
		h = traced{h: srv, tr: tr}
	}
	hs, base, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx := context.Background()
	ingestConns := []*conn{{hc: newClient(), base: base, tr: tr}}
	if w.ingestRate == 0 {
		ingestConns = ingestConns[:0]
		for i := 0; i < w.burstClients; i++ {
			ingestConns = append(ingestConns, &conn{hc: newClient(), base: base, tr: tr})
		}
	}
	queryConn := &conn{hc: newClient(), base: base, tr: tr}

	start := tr.now() + 50*time.Millisecond
	rep.winStart = start + warmup
	rep.winEnd = rep.winStart + window
	deadline := rep.winEnd + 10*time.Second
	p := &pool{reqs: ingest}
	var loads []func()
	for _, c := range ingestConns {
		if w.ingestRate > 0 {
			period := time.Duration(float64(time.Second) / w.ingestRate)
			loads = append(loads, func() {
				c.openLoop(ctx, start, rep.winEnd, deadline, period, func(int) (request, bool) { return p.take() }, false)
			})
		} else {
			loads = append(loads, func() {
				for tr.now() < start {
					time.Sleep(time.Millisecond)
				}
				c.closedLoop(ctx, rep.winEnd, p.take, false)
			})
		}
	}
	if w.queryRate > 0 {
		period := time.Duration(float64(time.Second) / w.queryRate)
		loads = append(loads, func() {
			queryConn.openLoop(ctx, start, rep.winEnd, deadline, period,
				func(i int) (request, bool) { return reads(i), true }, true)
		})
	}
	// The window's process-wide counters, sampled at every slice boundary.
	// A traced run records spans in the odd slices only, so the even ones
	// measure the same stretch of the stream untraced.
	meter := func() {
		n := int(window / slice)
		for k := 0; k <= n; k++ {
			sleepUntil(tr, rep.winStart+time.Duration(k)*slice)
			c, serr := snapshot()
			if serr != nil {
				tr.on.Store(false)
				err = serr
				return
			}
			rep.slices = append(rep.slices, c)
			tr.on.Store(traceRun && k < n && k%2 == 1)
			for tr.on.Load() && tr.now() < rep.winStart+time.Duration(k+1)*slice {
				rep.heapPeak = max(rep.heapPeak, heapInUse())
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	runAll(append(loads, meter)...)
	if err != nil {
		return nil, fmt.Errorf("window counters: %w", err)
	}
	if p.exhausted() {
		rep.fail("stream pool of %d batches exhausted before the window ended", len(ingest))
	}
	if w.ingestRate == 0 {
		if err := topUp(ctx, sh, ingestConns[0], p); err != nil {
			shutdown(hs)
			srv.Close()
			return nil, err
		}
	}
	if w.queryRate == 0 {
		// Write-only window: the read mix runs closed loop on the idle
		// server, so the query metrics still have a sample.
		n := 0
		tr.on.Store(traceRun)
		queryConn.closedLoop(ctx, tr.now()+time.Minute, func() (request, bool) {
			n++
			return reads(n - 1), n <= idleQueries
		}, true)
		tr.on.Store(false)
	}
	for _, c := range ingestConns {
		rep.ingest = append(rep.ingest, c.samples...)
	}
	rep.queries = queryConn.samples

	// Drain: stop HTTP, let the lane finish its refresh.
	shutdown(hs)
	srv.Close()
	rep.marks = sh.refreshMarks()
	rep.preloaded = preloaded
	runtime.GC()
	rep.liveHeap = heapInUse()

	if err := rep.check(d, in); err != nil {
		return nil, err
	}
	if err := rep.recover(dir, opt, d, srv); err != nil {
		return nil, err
	}
	rep.shim = sh
	if traceRun {
		for _, s := range append(append([]sample(nil), rep.ingest...), rep.queries...) {
			if rep.traced(s.due) {
				name := "client.query"
				if s.route == "/v1/ingest" {
					name = "client.ingest"
				}
				tr.add(span{ID: tr.newID(), Name: name, Req: s.req, Start: s.sent, End: s.done, Status: s.status})
			}
		}
		tr.link()
		rep.spanPath = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		if err := tr.dump(rep.spanPath); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
	}
	return rep, nil
}

// topUp posts further stream batches, unmeasured, until the checkpoint
// chain holds chainPosition batches past the last compaction.
func topUp(ctx context.Context, sh *shim, c *conn, p *pool) error {
	for {
		n, idle := sh.chainState()
		if !idle {
			time.Sleep(time.Millisecond)
			continue
		}
		if n == chainPosition {
			return nil
		}
		r, ok := p.take()
		if !ok {
			return fmt.Errorf("stream pool exhausted while moving the chain to %d batches", chainPosition)
		}
		now := c.tr.now()
		c.samples = append(c.samples, c.do(ctx, r, now, false))
	}
}

func sleepUntil(tr *tracer, t time.Duration) {
	if d := t - tr.now(); d > 0 {
		time.Sleep(d)
	}
}

func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
}
