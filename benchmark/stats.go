package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailRank is the nearest-rank index (1-based) of the highest
// percentile not above want that leaves at least minTail of n samples
// beyond it; with too few samples for any tail it is n (the maximum).
func tailRank(n int, want float64) int {
	r := rank(n, want)
	if n-r < minTail {
		r = n - minTail
	}
	if r < 1 {
		r = n
	}
	return r
}

// tail returns the value at tailRank and the percentile it stands for.
func tail(xs []float64, want float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	r := tailRank(len(xs), want)
	return xs[r-1], 100 * float64(r) / float64(len(xs))
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median of xs (sorted in place); the mean of the middle pair for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metricsText is a parsed /metrics page: "name value" per line.
type metricsText map[string]float64

func parseMetrics(body string) metricsText {
	out := metricsText{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[f[0]] = v
	}
	return out
}

// delta is after minus before for one metric, summed over endpoints
// when name contains "%s".
func delta(before, after metricsText, name string) float64 {
	if !strings.Contains(name, "%s") {
		return after[name] - before[name]
	}
	d := 0.0
	for _, ep := range []string{"attribute", "detect"} {
		n := strings.Replace(name, "%s", ep, 1)
		d += after[n] - before[n]
	}
	return d
}

// serverMeanMs is the mean server-side latency between two scrapes,
// from the per-endpoint latency histograms' sums and counts.
func serverMeanMs(before, after metricsText) float64 {
	n := delta(before, after, "%s_latency_count")
	if n <= 0 {
		return 0
	}
	return 1000 * delta(before, after, "%s_latency_sum_seconds") / n
}

// ledger splits the client's mean latency into its layers. Every
// field but Wait is measured (from /metrics, /fleet/status or the
// single-goroutine replay); Wait is the residual the serve batcher and
// its queue leave unexplained, since the binaries export no queue-wait
// counter.
type ledger struct {
	Client     float64 // client mean, ms from send to answer
	Front      float64 // mean server latency at the process the client talks to
	Server     float64 // mean server latency at the replica(s)
	Decode     float64 // request JSON decode, replayed
	Extraction float64 // cache lookup plus extraction on a miss, replayed in request order
	Score      float64 // oracle/detector scoring, replayed
}

func (l ledger) Transport() float64 { return l.Client - l.Front }
func (l ledger) Hop() float64       { return l.Front - l.Server }
func (l ledger) Wait() float64      { return l.Server - l.Decode - l.Extraction - l.Score }
