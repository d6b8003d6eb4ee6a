package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gptattr/internal/serve"
)

// request is one operation of a serving workload.
type request struct {
	src      int    // index into the run's sources
	endpoint string // "attribute" or "detect"
	hostile  bool
}

// outcome is one answered (or failed) request. Times are offsets from
// the start of its phase; in a closed loop due equals sent.
type outcome struct {
	req    request
	id     string
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int
	level  int // X-Degrade-Level, -1 when absent
	body   []byte
	err    error
}

// latency is the time from when the request was due to its answer.
func (o outcome) latency() time.Duration { return o.done - o.due }

// lag is how late the generator sent the request.
func (o outcome) lag() time.Duration { return o.sent - o.due }

// loader sends requests to one base URL over at most conns connections.
type loader struct {
	client *http.Client
	base   string
	bodies [][]byte // pre-encoded request body per source
	budget time.Duration
	conns  int
}

func newLoader(base string, sources []string, budget time.Duration, conns int) (*loader, error) {
	l := &loader{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		base:   base,
		budget: budget,
		conns:  conns,
	}
	for _, s := range sources {
		b, err := json.Marshal(serve.AttributeRequest{Source: s})
		if err != nil {
			return nil, err
		}
		l.bodies = append(l.bodies, b)
	}
	return l, nil
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// do sends one request and fills in status, level, body and err.
func (l *loader) do(ctx context.Context, o *outcome) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		l.base+"/v1/"+o.req.endpoint, bytes.NewReader(l.bodies[o.req.src]))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, o.id)
	if l.budget > 0 {
		req.Header.Set(serve.BudgetHeader, strconv.FormatInt(l.budget.Milliseconds(), 10))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	o.body, o.err = io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully read; nothing left to report
	o.status = resp.StatusCode
	o.level = -1
	if v, err := strconv.Atoi(resp.Header.Get(serve.DegradeHeader)); err == nil {
		o.level = v
	}
}

// openLoop sends reqs[i] at dues[i] after the phase starts, whether or
// not earlier requests have been answered, from l.conns goroutines.
// A request that finds every connection busy is sent late; its latency
// still counts from its due time.
func (l *loader) openLoop(ctx context.Context, phase string, reqs []request, dues []time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				o := &out[i]
				o.req, o.due = reqs[i], dues[i]
				o.id = fmt.Sprintf("%s-%d", phase, i)
				if wait := time.Until(start.Add(o.due)); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				o.sent = time.Since(start)
				l.do(ctx, o)
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps l.conns requests in flight for dur, taking request
// i from reqAt(i).
func (l *loader) closedLoop(ctx context.Context, phase string, reqAt func(int) request, dur time.Duration) []outcome {
	var mu sync.Mutex
	var out []outcome
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Since(start) < dur && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				o := outcome{req: reqAt(i), id: fmt.Sprintf("%s-%d", phase, i)}
				o.sent = time.Since(start)
				o.due = o.sent
				l.do(ctx, &o)
				o.done = time.Since(start)
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// get fetches a text or JSON page by absolute URL.
func (l *loader) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// scrape reads /metrics from one server.
func (l *loader) scrape(ctx context.Context, base string) (metricsText, error) {
	b, err := l.get(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b)), nil
}
