package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// workload fixes everything about one named traffic mix except the
// seed. The values are recorded in README.md and in the workload's
// "why" line in BENCHMARK.json; change them only in a change that
// re-measures the baseline.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// budget is sent as X-Request-Budget-Ms on every request (0: none).
	budget time.Duration
	// fleet puts attrrouter in front of two attrserve replicas.
	fleet bool
	// workingSet is the number of distinct sources replayed (0: every
	// distinct corpus source, which must be at least minWorkingSet).
	workingSet int
	// minWorkingSet is the smallest acceptable working set.
	minWorkingSet int
	// warm sends every working-set source once through the server
	// during set-up, so the measured phases hit the feature cache.
	warm bool
	// hostileEvery puts one adversarial source, at a seeded position,
	// in every block of this many requests (0: none).
	hostileEvery int
	// corpus is the gencorpus scale the sources are drawn from.
	corpus corpusScale
}

// corpusScale is one gencorpus invocation.
type corpusScale struct {
	years   string
	authors int
	rounds  int
}

// featcacheDefault is attrserve's -cache-entries default.
const featcacheDefault = 4096

// latencyLimit is the p99 latency target every serving workload is
// judged against: goodput_rps and in_limit_share count answers within it.
const latencyLimit = 20 * time.Millisecond

// trainScale is the corpus the served models are trained on: the
// human authors of its first year train the oracle ladder, and those
// authors against that year's ChatGPT-transformed sources train the
// detector.
var trainScale = corpusScale{years: "2017", authors: 16, rounds: 4}

var workloads = map[string]workload{
	// Working set above twice the LRU's capacity, replayed in the
	// same order every pass: every lookup misses, so every request
	// pays for a full extraction.
	"serve-cold": {
		name: "serve-cold", rate: 200,
		minWorkingSet: 2 * featcacheDefault,
		corpus:        corpusScale{years: "2017,2018,2019", authors: 256, rounds: 40},
	},
	// Few sources, all cached on their ring owner during set-up: the
	// request's cost is the router hop, HTTP/JSON, the batch window,
	// the cache hit and the forest.
	"serve-warm": {
		name: "serve-warm", rate: 200, fleet: true,
		workingSet: 256, minWorkingSet: 256, warm: true,
		corpus: corpusScale{years: "2017", authors: 24, rounds: 4},
	},
	// Cache-cold (a working set above the LRU's capacity, in a fixed
	// order), one adversarial shape in every twenty requests and a
	// tight budget on each: semstats' worst case, deadline handling,
	// and normal requests stuck behind a hostile batch. At 100 req/s a
	// third of the requests were stuck and p50 moved by half between
	// seeds; at 50 req/s about one in six is, and the figures hold.
	"serve-hostile": {
		name: "serve-hostile", rate: 50, budget: 25 * time.Millisecond,
		minWorkingSet: featcacheDefault + 1, hostileEvery: 20,
		corpus: corpusScale{years: "2017,2018,2019", authors: 128, rounds: 24},
	},
}

// arrivals returns a seeded Poisson schedule at rate requests per
// second: the due time of every request in [0, dur).
func arrivals(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, due)
	}
}

// hostileKinds are the adversarial shapes serve-hostile sends and the
// traced runs replay under a 25 ms budget. Each kind's size range was
// chosen so that a full extraction of its smallest instance costs at
// least twice that budget
// on a 2-vCPU Xeon at the commit that introduced the benchmark (about
// 60 ms for a 12 KiB if-nest, 55 ms for an 8 KiB loop nest). Paren
// nests, else-if chains and switches were measured too and left out:
// at 20 KiB they still cost under 50 ms.
var hostileKinds = []struct {
	name       string
	minB, maxB int
	gen        func(r *rand.Rand, size int) string
}{
	{"if-nest", 12 << 10, 13 << 10, ifNest},
	{"loop-nest", 8 << 10, 9 << 10, loopNest},
}

// hostileSource draws one adversarial source: its kind and its size
// within the kind's range.
func hostileSource(r *rand.Rand) (kind, src string) {
	k := hostileKinds[r.Intn(len(hostileKinds))]
	size := k.minB + r.Intn(k.maxB-k.minB+1)
	return k.name, k.gen(r, size)
}

// wrapMain closes a function body opened by the shape generators and
// appends a salt comment, so two draws of the same shape and size are
// still distinct sources (and distinct feature-cache keys).
func wrapMain(b *strings.Builder, r *rand.Rand) string {
	fmt.Fprintf(b, "  return 0;\n}\n// %016x\n", r.Uint64())
	return b.String()
}

func header(b *strings.Builder) {
	b.WriteString("#include <cstdio>\nint main() {\n  int x = 0, y = 1;\n  scanf(\"%d\", &x);\n")
}

// ifNest is the statement nest `if(x) if(x) ... y++;`.
func ifNest(r *rand.Rand, size int) string {
	var b strings.Builder
	header(&b)
	for b.Len() < size {
		b.WriteString("if(x) ")
	}
	b.WriteString("y++;\n")
	return wrapMain(&b, r)
}

// loopNest is a brace nest of loops, `while(x){ ... y++; }`.
func loopNest(r *rand.Rand, size int) string {
	var b strings.Builder
	header(&b)
	depth := (size - b.Len()) / len("while(x){}")
	b.WriteString(strings.Repeat("while(x){", depth))
	b.WriteString("y++;")
	b.WriteString(strings.Repeat("}", depth))
	b.WriteString("\n")
	return wrapMain(&b, r)
}
