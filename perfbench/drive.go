package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as the client saw it. Times are since the run's
// epoch; due is when an open-loop schedule meant to send it (a closed-loop
// client's due is its send time). Latency counts from start: the due time
// when the connection was still busy with an earlier request then, so a
// stall charges every request it delayed, and the send time when the
// connection was idle, so the generator's own timer slack (up to a
// millisecond) is not charged to the server.
type sample struct {
	due, start, sent, done time.Duration
	status                 int // 0 on a transport error
	records                int // ingest only
	req                    string
	route                  string // query only
	body                   []byte // 2xx query bodies, decoded after the window
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// newClient returns a client that uses exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// request is what a generator sends: an ingest batch or a read-mix query.
type request struct {
	method, path, header, id string
	body                     []byte
	records                  int
}

func (c *conn) do(ctx context.Context, r request, due time.Duration, keepBody bool) sample {
	s := sample{due: due, start: due, req: r.id, records: r.records, route: r.path}
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.sent, s.done = c.tr.now(), c.tr.now()
		return s
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(r.header, r.id)
	s.sent = c.tr.now()
	resp, err := c.hc.Do(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			s.status = resp.StatusCode
			if keepBody && s.ok() {
				s.body = body
			}
		}
	}
	s.done = c.tr.now()
	return s
}

// conn is one client connection with the samples it produced.
type conn struct {
	hc      *http.Client
	base    string
	tr      *tracer
	samples []sample
}

// openLoop sends next(i) at start + i*period until the schedule passes end.
// A request that is late because the previous one had not returned is sent
// at once, and its latency still counts from its due time. Requests still
// unsent at the hard deadline are recorded as failed.
func (c *conn) openLoop(ctx context.Context, start, end, deadline time.Duration, period time.Duration, next func(i int) (request, bool), keepBody bool) {
	var prevDone time.Duration
	for i := 0; ; i++ {
		due := start + time.Duration(i)*period
		if due >= end {
			return
		}
		r, ok := next(i)
		if !ok {
			return
		}
		if now := c.tr.now(); now > deadline {
			c.samples = append(c.samples, sample{due: due, start: due, sent: now, done: now, req: r.id, records: r.records, route: r.path})
			continue
		} else if due > now {
			select {
			case <-time.After(due - now):
			case <-ctx.Done():
				return
			}
		}
		s := c.do(ctx, r, due, keepBody)
		if prevDone <= due {
			s.start = s.sent
		}
		prevDone = s.done
		c.samples = append(c.samples, s)
	}
}

// closedLoop sends the pool's next request as soon as the previous one
// returned, until end.
func (c *conn) closedLoop(ctx context.Context, end time.Duration, next func() (request, bool), keepBody bool) {
	for c.tr.now() < end {
		r, ok := next()
		if !ok {
			return
		}
		now := c.tr.now()
		c.samples = append(c.samples, c.do(ctx, r, now, keepBody))
	}
}

// pool hands out stream batches to one or more clients, in order.
type pool struct {
	reqs []request
	next atomic.Int64
}

func (p *pool) take() (request, bool) {
	i := int(p.next.Add(1) - 1)
	if i >= len(p.reqs) {
		return request{}, false
	}
	return p.reqs[i], true
}

func (p *pool) exhausted() bool { return int(p.next.Load()) > len(p.reqs) }

func ingestRequests(stream []batch) []request {
	out := make([]request, len(stream))
	for i, b := range stream {
		out[i] = request{method: http.MethodPost, path: "/v1/ingest", header: "Idempotency-Key",
			id: b.key, body: b.body, records: len(b.recs)}
	}
	return out
}

// readMix returns the i-th query of a workload's read mix.
func readMix(in *inputs, withLayer6 bool) func(i int) request {
	paths := []func(i int) string{
		func(int) string { return "/v1/top-sources?k=10" },
		func(int) string { return "/v1/top-triples?k=10" },
		func(i int) string { return "/v1/source?name=" + in.sources[i%len(in.sources)] },
	}
	if withLayer6 {
		paths = append(paths,
			func(i int) string { return "/v1/fused?item=" + url.QueryEscape(in.items[i%len(in.items)]) },
			func(int) string { return "/v1/copy-deps?k=10" },
		)
	}
	return func(i int) request {
		return request{method: http.MethodGet, path: paths[i%len(paths)](i / len(paths)),
			header: requestHeader, id: fmt.Sprintf("q%07d", i)}
	}
}

// runAll runs fns concurrently and waits for all of them.
func runAll(fns ...func()) {
	var wg sync.WaitGroup
	for _, f := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}
