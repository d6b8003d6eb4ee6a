package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, want int
	}{
		{1000, 990}, // p99 exactly, 10 beyond
		{1200, 1188},
		{700, 690}, // p98.57: the highest percentile with 10 beyond
		{11, 1},
		{10, 10}, // too few for any tail: the maximum
		{1, 1},
	} {
		if got := tailRank(tc.n, 99); got != tc.want {
			t.Errorf("tailRank(%d, 99) = %d, want %d", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 700)
	for i := range xs {
		xs[i] = float64(700 - i) // reversed, so tail must sort
	}
	v, pct := tail(xs, 99)
	if v != 690 || math.Abs(pct-100*690.0/700) > 1e-9 {
		t.Errorf("tail = %v at p%v, want 690 at p%v", v, pct, 100*690.0/700)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestOutcomeTiming(t *testing.T) {
	o := outcome{due: 10 * time.Millisecond, sent: 12 * time.Millisecond, done: 20 * time.Millisecond}
	if o.latency() != 10*time.Millisecond || o.lag() != 2*time.Millisecond {
		t.Fatalf("latency %v lag %v, want 10ms and 2ms", o.latency(), o.lag())
	}
}

// TestOpenLoopCountsFromDueTime drives a slow server over one
// connection: requests due while it is busy are sent late, and their
// latency includes that wait.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("X-Degrade-Level", "0")
		_, _ = w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	l, err := newLoader(srv.URL, []string{"int main(){}"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	reqs := []request{{src: 0, endpoint: "attribute"}, {src: 0, endpoint: "detect"}, {src: 0, endpoint: "attribute"}}
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	out := l.openLoop(context.Background(), "t", reqs, dues)
	for i, o := range out {
		if o.err != nil || o.status != http.StatusOK || o.level != 0 {
			t.Fatalf("request %d: status %d level %d err %v", i, o.status, o.level, o.err)
		}
		if o.id != "t-"+string(rune('0'+i)) {
			t.Errorf("request %d id %q", i, o.id)
		}
	}
	// The third request waits for two services before it is sent.
	if lag := out[2].lag(); lag < 2*service-5*time.Millisecond {
		t.Errorf("third request lag %v, want about %v", lag, 2*service)
	}
	if lat := out[2].latency(); lat < 3*service-5*time.Millisecond {
		t.Errorf("third request latency %v, want at least %v from its due time", lat, 3*service)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := arrivals(seeded(7, streamSchedule), 200, 5*time.Second)
	b := arrivals(seeded(7, streamSchedule), 200, 5*time.Second)
	c := arrivals(seeded(8, streamSchedule), 200, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if n := len(a); n < 800 || n > 1200 {
		t.Errorf("%d arrivals in 5s at 200/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 5*time.Second {
			t.Fatalf("arrival %d out of order or range: %v", i, a[i])
		}
	}
	for i := 0; i < 8; i++ {
		k1, s1 := hostileSource(seeded(int64(i), 3))
		k2, s2 := hostileSource(seeded(int64(i), 3))
		if k1 != k2 || s1 != s2 {
			t.Fatalf("hostile draw %d differs between equal seeds", i)
		}
		if len(s1) < 8<<10 || len(s1) > 14<<10 {
			t.Errorf("hostile %s source of %d bytes outside the sized ranges", k1, len(s1))
		}
	}
	r := &serveRun{sources: []string{"a", "b", "c"}, ws: 3}
	var eps []string
	var srcs []int
	for i := 0; i < 6; i++ {
		q := r.reqAt(i)
		eps, srcs = append(eps, q.endpoint), append(srcs, q.src)
	}
	if !reflect.DeepEqual(srcs, []int{0, 1, 2, 0, 1, 2}) ||
		!reflect.DeepEqual(eps, []string{"attribute", "detect", "attribute", "detect", "attribute", "detect"}) {
		t.Errorf("request sequence %v %v", srcs, eps)
	}
}

func TestGoodputMedianOfWindows(t *testing.T) {
	var outs []outcome
	var ok []bool
	// 100 good answers in each of the first three half-second windows,
	// none in the fourth (a stall), plus a slow and a failed answer.
	for b := 0; b < 3; b++ {
		for i := 0; i < 100; i++ {
			at := time.Duration(b)*goodputBin + time.Duration(i)*time.Millisecond
			outs = append(outs, outcome{due: at, sent: at, done: at + time.Millisecond})
			ok = append(ok, true)
		}
	}
	outs = append(outs, outcome{done: 30 * time.Millisecond}, outcome{done: 40 * time.Millisecond})
	ok = append(ok, true, false)
	if got := goodputMedian(outs, ok, 4*goodputBin); got != 200 {
		t.Fatalf("goodput = %v/s, want the median window's 200/s", got)
	}
}

func TestLedgerAddsUp(t *testing.T) {
	l := ledger{Client: 5, Front: 4, Server: 3, Decode: 0.1, Extraction: 0.5, Score: 0.2}
	if l.Transport() != 1 || l.Hop() != 1 || math.Abs(l.Wait()-2.2) > 1e-12 {
		t.Fatalf("transport %v hop %v wait %v", l.Transport(), l.Hop(), l.Wait())
	}
	sum := l.Transport() + l.Hop() + l.Decode + l.Extraction + l.Score + l.Wait()
	if math.Abs(sum-l.Client) > 1e-12 {
		t.Fatalf("ledger rows sum to %v, client mean %v", sum, l.Client)
	}
	var buf bytes.Buffer
	printLedger(&buf, workloads["serve-warm"], l, 10)
	if !strings.Contains(buf.String(), "RESIDUAL") {
		t.Errorf("ledger does not label the residual:\n%s", buf.String())
	}
}

func TestParseMetrics(t *testing.T) {
	before := parseMetrics("attribute_latency_count 10\nattribute_latency_sum_seconds 0.030000\ndetect_latency_count 10\n" +
		"detect_latency_sum_seconds 0.010000\nbatches_total 4\ngarbage line here\n")
	after := parseMetrics("attribute_latency_count 20\nattribute_latency_sum_seconds 0.060000\ndetect_latency_count 30\n" +
		"detect_latency_sum_seconds 0.050000\nbatches_total 9\n")
	if got := delta(before, after, "batches_total"); got != 5 {
		t.Errorf("delta batches_total = %v", got)
	}
	if got := delta(before, after, "%s_latency_count"); got != 30 {
		t.Errorf("delta over endpoints = %v", got)
	}
	if got := serverMeanMs(before, after); math.Abs(got-70.0/30) > 1e-9 {
		t.Errorf("server mean = %v ms, want %v", got, 70.0/30)
	}
	ta, err := parseTotalAlloc("# runtime.MemStats\n# Alloc = 5\n# TotalAlloc = 123456\n")
	if err != nil || ta != 123456 {
		t.Errorf("TotalAlloc = %v, %v", ta, err)
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (attr serve) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 1 1 1"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 3s", cpu, err)
	}
	for line, want := range map[string]string{
		"attrserve listening on 127.0.0.1:40123 (generation 1, oracle=true, detector=true)": "127.0.0.1:40123",
		"attrrouter listening on 127.0.0.1:5 (2 replicas, generation 1)":                    "127.0.0.1:5",
	} {
		if got, ok := addrAfter(line, "listening on "); !ok || got != want {
			t.Errorf("addrAfter(%q) = %q, %v", line, got, ok)
		}
	}
	if got, ok := addrAfter("attrserve: pprof on http://127.0.0.1:6060/debug/pprof/", "pprof on http://"); !ok || got != "127.0.0.1:6060" {
		t.Errorf("pprof addr = %q, %v", got, ok)
	}
	if _, ok := addrAfter("attrserve: pprof on http://127.0.0.1:6060/debug/pprof/", "listening on "); ok {
		t.Error("pprof line taken for the listening line")
	}
}

func TestProfileDecoding(t *testing.T) {
	for fn, want := range map[string]string{
		"gptattr/internal/cpptok.(*scanner).scan":     "cpptok",
		"gptattr/internal/serve/metrics.(*H).Observe": "serve",
		"gptattr/internal/ir.Synthesize":              "other",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).Get":            "runtime",
		"net/http.(*conn).serve":                      "net",
		"encoding/json.(*decodeState).object":         "encoding_json",
		"main.run":                                    "other",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %q, want %q", fn, got, want)
		}
	}
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total, err := p.total("alloc_space")
	if err != nil || total < int64(len(sink))*(64<<10)/2 {
		t.Errorf("alloc_space total %d (err %v), want at least half of the %d bytes allocated", total, err, len(sink)*(64<<10))
	}
	by := map[string]int64{}
	if err := p.flatByBucket("alloc_space", by); err != nil || len(by) == 0 {
		t.Errorf("flatByBucket: %v %v", by, err)
	}
}
