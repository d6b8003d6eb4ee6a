package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gptattr/internal/corpus"
	"gptattr/internal/cppast"
	"gptattr/internal/cpptok"
	"gptattr/internal/featcache"
	"gptattr/internal/fleet"
	"gptattr/internal/ml"
	"gptattr/internal/semstats"
	"gptattr/internal/serve"
	"gptattr/internal/stylometry"
)

// perLayer collects the per-layer metrics of one traced run. Metrics a
// workload does not exercise keep their zero value (a fleet counter on
// a single replica, a serving counter on paper-tables).
type perLayer map[string]float64

// perLayerUnits fixes the name and unit of every per-layer metric; a
// traced run reports all of them.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"cpptok.scan_us":                "us",
		"cppast.parse_us":               "us",
		"semstats.analyze_us":           "us",
		"stylometry.passes_us":          "us",
		"stylometry.extract_us":         "us",
		"stylometry.extract_surface_us": "us",
		"semstats.analyze_hostile_ms":   "ms",
		"stylometry.budget_overrun_ms":  "ms",
		"stylometry.level_honest_share": "ratio",
		"serve.batch_size":              "count",
		"batcher.wait_ms":               "ms",
		"brownout.steps_up":             "count",
		"serve.server_mean_ms":          "ms",
		"serve.transport_ms":            "ms",
		"serve.decode_us":               "us",
		"serve.encode_us":               "us",
		"serve.rejected_share":          "ratio",
		"serve.deadline_share":          "ratio",
		"featcache.hit_ratio":           "ratio",
		"featcache.get_us":              "us",
		"fleet.hop_ms":                  "ms",
		"fleet.hedges":                  "count",
		"fleet.failovers":               "count",
		"attrib.score_us":               "us",
		"corpus.generate_s":             "s",
		"stylometry.extract_all_s":      "s",
		"ml.infogain_s":                 "s",
		"ml.fit_forest_s":               "s",
		"ml.cv_s":                       "s",
		"runtime.alloc_kb_per_req":      "KiB",
		"client.lag_p99_ms":             "ms",
		"client.p99_ms":                 "ms",
		"trace.overhead_ms":             "ms",
	}
	for _, b := range cpuBuckets {
		u["cpu."+b] = "ratio"
	}
	return u
}()

func (pl perLayer) into(res *result) {
	for _, name := range sortedKeys(perLayerUnits) {
		res.addMetric(name, perLayerUnits[name], pl[name])
	}
}

// traceServe is the traced run of a serving workload: an untraced
// fixed-rate phase, then a traced one with server CPU profiles,
// allocation counters and /metrics scrapes around it, then a
// single-goroutine replay of the traced phase's requests through the
// library entry points the server path uses.
func traceServe(ctx context.Context, o options, w workload, dir string, stdout io.Writer) (*result, error) {
	r, err := setupServe(ctx, o, w, filepath.Join(dir, "setup"), true)
	if err != nil {
		if r != nil && r.dep != nil {
			_ = r.dep.stop() // already failing
		}
		return nil, err
	}
	defer func() { _ = r.dep.stop() }() // idempotent; the checked stop is below
	defer r.loader.close()
	syscall.Sync() // keep the set-up's write-back out of the measured phases

	half := time.Duration(o.seconds) * time.Second / 2
	plainReqs, plainDues := r.openPhase(o.seed, streamSchedule, half, 0)
	plainOut := r.loader.openLoop(ctx, "plain", plainReqs, plainDues)

	reqs, dues := r.openPhase(o.seed, streamTraceSchedule, half, len(plainReqs))
	before, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	profSecs := int(half.Seconds() + 0.5)
	profiles := make([][]byte, len(r.dep.pprof))
	profErrs := make([]error, len(r.dep.pprof))
	var wg sync.WaitGroup
	for i, addr := range r.dep.pprof {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			profiles[i], profErrs[i] = r.loader.get(ctx,
				fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, max(profSecs, 1)))
		}(i, addr)
	}
	traced := r.loader.openLoop(ctx, "traced", reqs, dues)
	wg.Wait()
	after, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	if err := r.dep.stop(); err != nil {
		return nil, err
	}
	for _, e := range profErrs {
		if e != nil {
			return nil, fmt.Errorf("cpu profile: %w", e)
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := writeSpans(o, w.name, traced); err != nil {
		return nil, err
	}

	chk, err := newChecker(r.models, r.sources)
	if err != nil {
		return nil, err
	}
	pv, tv := judge(chk, w, plainOut), judge(chk, w, traced)
	res := &result{
		Attempted: len(plainOut) + len(traced),
		Failed:    pv.failed + pv.wrong + tv.failed + tv.wrong,
		Correct:   pv.wrong+tv.wrong == 0,
	}
	for _, e := range []error{pv.firstErr, tv.firstErr} {
		if e != nil {
			fmt.Fprintln(stdout, "first problem:", e)
			break
		}
	}

	pl := perLayer{}
	// Client view. The ledger covers the requests answered 200, the
	// only ones the server's latency histograms observe.
	var sendMs, lags []float64
	for i, oc := range traced {
		lags = append(lags, ms(oc.lag()))
		if tv.ok[i] {
			sendMs = append(sendMs, ms(oc.done-oc.sent))
		}
	}
	pl["client.lag_p99_ms"], _ = tail(lags, 99)
	plainSum, tracedSum := summarizeOpen(plainOut, pv), summarizeOpen(traced, tv)
	pl["trace.overhead_ms"] = tracedSum.p50 - plainSum.p50
	pl["client.p99_ms"] = tracedSum.p99

	// Server counters between the two scrapes.
	n := 0.0
	for i := range r.dep.replicas {
		n += delta(before.replicas[i], after.replicas[i], "%s_requests_total")
		pl["brownout.steps_up"] += delta(before.replicas[i], after.replicas[i], "brownout_steps_up_total")
	}
	var batches, batched, rejected, deadline, srvSum, srvCount float64
	for i := range r.dep.replicas {
		b, a := before.replicas[i], after.replicas[i]
		batches += delta(b, a, "batches_total")
		batched += delta(b, a, "batched_requests_total")
		rejected += delta(b, a, "rejected_total")
		deadline += delta(b, a, "deadline_exceeded_total")
		srvSum += delta(b, a, "%s_latency_sum_seconds")
		srvCount += delta(b, a, "%s_latency_count")
	}
	if batches > 0 {
		pl["serve.batch_size"] = batched / batches
	}
	if n > 0 {
		pl["serve.rejected_share"] = rejected / n
		pl["serve.deadline_share"] = deadline / n
	}
	led := ledger{Client: mean(sendMs)}
	if srvCount > 0 {
		led.Server = 1000 * srvSum / srvCount
	}
	led.Front = led.Server
	if w.fleet {
		led.Front = serverMeanMs(before.front, after.front)
		pl["fleet.hop_ms"] = led.Hop()
		pl["fleet.hedges"] = float64(after.fleet.Hedges - before.fleet.Hedges)
		pl["fleet.failovers"] = float64(after.fleet.Failovers - before.fleet.Failovers)
	}
	pl["serve.server_mean_ms"] = led.Server
	pl["serve.transport_ms"] = led.Transport()
	var allocKB float64
	for i := range r.dep.pprof {
		allocKB += float64(after.totalAlloc[i]-before.totalAlloc[i]) / 1024
	}
	pl["runtime.alloc_kb_per_req"] = allocKB / float64(max(len(traced), 1))
	cpu := map[string]int64{}
	for _, b := range profiles {
		p, err := parseProfile(b)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := p.flatByBucket("cpu", cpu); err != nil {
			return nil, err
		}
	}
	addCPUShares(pl, cpu)

	// Single-goroutine replay of the traced phase.
	warmup := 0
	if w.warm {
		warmup = r.ws
	}
	rp, err := replay(ctx, r, chk, append(append([]request(nil), plainReqs...), reqs...), len(plainReqs), warmup, tv.ok, o.seed)
	if err != nil {
		return nil, err
	}
	rp.into(pl)
	led.Decode = pl["serve.decode_us"] / 1000
	led.Extraction = rp.extractionMs
	led.Score = pl["attrib.score_us"] / 1000
	pl["batcher.wait_ms"] = led.Wait()

	pl["corpus.generate_s"] = r.genTime.Seconds()
	if err := replayPipeline(r.human, o.seed, pl); err != nil {
		return nil, err
	}

	printLedger(stdout, w, led, len(sendMs))
	pl.into(res)
	printMetrics(stdout, w.name+" (traced)", res)
	return res, nil
}

// snapshot is the server-side state read before and after a phase.
type snapshot struct {
	front      metricsText
	replicas   []metricsText
	fleet      fleet.FleetStatus
	totalAlloc []uint64
}

func (r *serveRun) snapshot(ctx context.Context) (snapshot, error) {
	var s snapshot
	for _, base := range r.dep.replicas {
		m, err := r.loader.scrape(ctx, base)
		if err != nil {
			return s, err
		}
		s.replicas = append(s.replicas, m)
	}
	if r.w.fleet {
		var err error
		if s.front, err = r.loader.scrape(ctx, r.dep.front); err != nil {
			return s, err
		}
		if s.fleet, err = fleetStatus(ctx, r.loader, r.dep.front); err != nil {
			return s, err
		}
	}
	for _, addr := range r.dep.pprof {
		b, err := r.loader.get(ctx, "http://"+addr+"/debug/pprof/heap?debug=1")
		if err != nil {
			return s, err
		}
		ta, err := parseTotalAlloc(string(b))
		if err != nil {
			return s, err
		}
		s.totalAlloc = append(s.totalAlloc, ta)
	}
	return s, nil
}

// parseTotalAlloc reads "# TotalAlloc = N" from a debug=1 heap profile.
func parseTotalAlloc(text string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("heap profile has no TotalAlloc")
}

func addCPUShares(pl perLayer, cpu map[string]int64) {
	var total int64
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		return
	}
	for _, b := range cpuBuckets {
		pl["cpu."+b] = float64(cpu[b]) / float64(total)
	}
}

// writeSpans writes the traced phase's client spans, one JSON object
// per request, next to the scratch directory.
func writeSpans(o options, name string, outs []outcome) error {
	dir := filepath.Join(filepath.Dir(o.work), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, o.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type span struct {
		ID       string  `json:"id"`
		Endpoint string  `json:"endpoint"`
		DueMs    float64 `json:"due_ms"`
		SendMs   float64 `json:"send_ms"`
		DoneMs   float64 `json:"done_ms"`
		Status   int     `json:"status"`
		Level    int     `json:"level"`
	}
	enc := json.NewEncoder(bw)
	for _, oc := range outs {
		if err := enc.Encode(span{oc.id, oc.req.endpoint, ms(oc.due), ms(oc.sent), ms(oc.done), oc.status, oc.level}); err != nil {
			_ = f.Close() // already failing
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // already failing
		return err
	}
	return f.Close()
}

// replayResult holds the library-level timings of one replay.
type replayResult struct {
	scan, parse, analyze, extract, surface []float64 // µs, distinct sources
	hostileAnalyze, overrun                []float64 // ms, adversarial shapes
	honest, honestN                        int
	decode, encode, score, get             []float64 // µs, per request
	hits, lookups                          int
	extractionMs                           float64 // mean cache lookup + extraction per traced request
}

func (rp replayResult) into(pl perLayer) {
	pl["cpptok.scan_us"] = mean(rp.scan)
	pl["cppast.parse_us"] = mean(rp.parse)
	pl["semstats.analyze_us"] = mean(rp.analyze)
	pl["stylometry.extract_us"] = mean(rp.extract)
	pl["stylometry.extract_surface_us"] = mean(rp.surface)
	pl["stylometry.passes_us"] = max(0, mean(rp.extract)-mean(rp.scan)-mean(rp.parse)-mean(rp.analyze))
	pl["semstats.analyze_hostile_ms"] = mean(rp.hostileAnalyze)
	pl["stylometry.budget_overrun_ms"] = mean(rp.overrun)
	if rp.honestN > 0 {
		pl["stylometry.level_honest_share"] = float64(rp.honest) / float64(rp.honestN)
	}
	pl["serve.decode_us"] = mean(rp.decode)
	pl["serve.encode_us"] = mean(rp.encode)
	pl["attrib.score_us"] = mean(rp.score)
	pl["featcache.get_us"] = mean(rp.get)
	if rp.lookups > 0 {
		pl["featcache.hit_ratio"] = float64(rp.hits) / float64(rp.lookups)
	}
}

// replayBudget is the deadline adversarial shapes are extracted under.
const replayBudget = 25 * time.Millisecond

// replayHostile is how many seeded adversarial shapes a traced run
// replays when its workload sends none.
const replayHostile = 8

// replay sends the workload's requests through the library entry
// points the server path uses, on one goroutine: feature-cache
// Get/Put in request order at the server's capacity (per ring owner on
// a fleet), then for the traced requests (reqs[from:]) the scan,
// parse, semantic analysis, extraction at each level, scoring and JSON
// codec of each request; the per-request ledger rows count only the
// traced requests that were answered (answered[i-from]).
func replay(ctx context.Context, r *serveRun, chk *checker, reqs []request, from, warmup int, answered []bool, seed int64) (replayResult, error) {
	models := chk.models
	caches := map[string]*featcache.Cache{}
	ring := fleet.NewRing(0)
	owner := func(src string) string { return "" }
	if r.w.fleet {
		for i := range r.dep.replicas {
			ring.Add(fmt.Sprintf("r%d", i+1))
		}
		owner = func(src string) string { o, _ := ring.Owner([]byte(src)); return o }
	}
	cacheFor := func(src string) (*featcache.Cache, error) {
		k := owner(src)
		if c := caches[k]; c != nil {
			return c, nil
		}
		c, err := featcache.New(featcache.Options{MaxEntries: featcacheDefault})
		caches[k] = c
		return c, err
	}

	var normal, hostile []string
	seen := map[int]bool{}
	for _, q := range reqs[from:] {
		switch {
		case seen[q.src]:
		case q.hostile:
			hostile = append(hostile, r.sources[q.src])
		default:
			normal = append(normal, r.sources[q.src])
		}
		seen[q.src] = true
	}
	rp, extractUs, err := replaySources(ctx, normal, hostile, seed)
	if err != nil {
		return rp, err
	}
	placeholder := stylometry.Features{}

	// Requests in order: cache lookups for every request (warm-up and
	// the untraced phase only fill the cache), then codec and scoring
	// for the traced ones.
	var extractionMs []float64
	for i := -warmup; i < len(reqs); i++ {
		var q request
		if i < 0 {
			q = request{src: warmup + i, endpoint: "attribute"}
		} else {
			q = reqs[i]
		}
		src := r.sources[q.src]
		c, err := cacheFor(src)
		if err != nil {
			return rp, err
		}
		traced := i >= from
		t := time.Now()
		_, hit := c.Get(src)
		get := time.Since(t)
		if !hit && !q.hostile {
			f := placeholder
			if traced {
				if f, err = chk.features(q.src, stylometry.DegradeNone); err != nil {
					return rp, err
				}
			}
			c.Put(src, f)
		}
		if !traced {
			continue
		}
		rp.lookups++
		if hit {
			rp.hits++
		}
		if !answered[i-from] {
			continue
		}
		rp.get = append(rp.get, us(get))
		cost := us(get)
		switch {
		case hit:
		case q.hostile:
			// The server answers an adversarial request at its budget.
			cost += us(r.w.budget)
		default:
			cost += extractUs[src]
		}
		extractionMs = append(extractionMs, cost/1000)
		if q.hostile {
			continue
		}
		dec, enc, score, err := codecAndScore(models, r.loader.bodies[q.src], q, chk)
		if err != nil {
			return rp, err
		}
		rp.decode = append(rp.decode, dec)
		rp.encode = append(rp.encode, enc)
		rp.score = append(rp.score, score)
	}
	rp.extractionMs = mean(extractionMs)
	return rp, nil
}

// replaySources times the extraction layers on one goroutine: scan,
// parse, semantic analysis and extraction at full and surface level
// for each source, then for each adversarial source (or, without any,
// replayHostile seeded shapes) its unbudgeted analysis and its
// extraction under replayBudget: how far past the budget the call ran,
// and whether the level it reported is the level of the vector it
// delivered. It returns each source's full extraction time in µs.
func replaySources(ctx context.Context, sources, hostile []string, seed int64) (replayResult, map[string]float64, error) {
	var rp replayResult
	sc := stylometry.NewScratch()
	ss := semstats.NewScratch()
	arena := cppast.NewArena()
	var surf cpptok.Surface
	var toks []cpptok.Token
	extractUs := map[string]float64{}
	for _, src := range sources {
		t := time.Now()
		toks, _ = cpptok.ScanSurface(src, toks[:0], &surf)
		rp.scan = append(rp.scan, us(time.Since(t)))
		toks = cpptok.StripCommentsInPlace(toks)
		arena.Reset()
		t = time.Now()
		tu := cppast.ParseTokens(toks, arena)
		rp.parse = append(rp.parse, us(time.Since(t)))
		t = time.Now()
		if _, err := ss.AnalyzeContext(ctx, tu); err != nil {
			return rp, nil, err
		}
		rp.analyze = append(rp.analyze, us(time.Since(t)))
		ss.Release()
		t = time.Now()
		if _, err := sc.ExtractVec(ctx, src, stylometry.DegradeNone); err != nil {
			return rp, nil, err
		}
		d := us(time.Since(t))
		rp.extract = append(rp.extract, d)
		extractUs[src] = d
		t = time.Now()
		if _, err := sc.ExtractVec(ctx, src, stylometry.DegradeSurface); err != nil {
			return rp, nil, err
		}
		rp.surface = append(rp.surface, us(time.Since(t)))
	}
	if len(hostile) == 0 {
		hr := rand.New(rand.NewSource(seed))
		for i := 0; i < replayHostile; i++ {
			_, src := hostileSource(hr)
			hostile = append(hostile, src)
		}
	}
	for _, src := range hostile {
		toks, _ = cpptok.ScanSurface(src, toks[:0], &surf)
		toks = cpptok.StripCommentsInPlace(toks)
		arena.Reset()
		tu := cppast.ParseTokens(toks, arena)
		t := time.Now()
		if _, err := ss.AnalyzeContext(ctx, tu); err != nil {
			return rp, nil, err
		}
		rp.hostileAnalyze = append(rp.hostileAnalyze, ms(time.Since(t)))
		ss.Release()
		lvl, got, d, err := budgeted(ctx, sc, src, replayBudget)
		if err != nil {
			return rp, nil, err
		}
		rp.overrun = append(rp.overrun, max(0, ms(d-replayBudget)))
		want, _, err := stylometry.ExtractDegraded(ctx, src, lvl)
		if err != nil {
			return rp, nil, err
		}
		rp.honestN++
		if reflect.DeepEqual(got, want) {
			rp.honest++
		}
	}
	return rp, extractUs, nil
}

// budgeted runs one extraction under a deadline and returns its level,
// the vector it delivered, and how long it took.
func budgeted(ctx context.Context, sc *stylometry.Scratch, src string, budget time.Duration) (stylometry.DegradeLevel, stylometry.Features, time.Duration, error) {
	bctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	t := time.Now()
	lvl, err := sc.ExtractVec(bctx, src, stylometry.DegradeNone)
	d := time.Since(t)
	if err != nil {
		return lvl, nil, d, err
	}
	return lvl, sc.Vec().Features(), d, nil
}

// codecAndScore times one request's JSON decode, scoring and response
// encode, in µs.
func codecAndScore(models *serve.Models, body []byte, q request, chk *checker) (dec, enc, score float64, err error) {
	t := time.Now()
	var req serve.AttributeRequest
	if err = json.Unmarshal(body, &req); err != nil {
		return
	}
	dec = us(time.Since(t))
	f, err := chk.features(q.src, stylometry.DegradeNone)
	if err != nil {
		return
	}
	var resp any
	t = time.Now()
	if q.endpoint == "attribute" {
		proba, best := models.Oracle.ProbaFeatures(f)
		resp = serve.AttributeResponse{Author: best, Proba: proba, Confidence: proba[best], ModelGeneration: models.Generation}
	} else {
		verdict, conf := models.Detector.DetectFeatures(f)
		resp = serve.DetectResponse{ChatGPT: verdict, Confidence: conf, ModelGeneration: models.Generation}
	}
	score = us(time.Since(t))
	t = time.Now()
	if _, err = json.Marshal(resp); err != nil {
		return
	}
	enc = us(time.Since(t))
	return
}

// replayPipeline times the offline pipeline's stages in process on the
// human-authored samples of the first year of the corpus under root:
// batch extraction, information-gain feature selection, forest fitting
// and cross-validation.
func replayPipeline(root string, seed int64, pl perLayer) error {
	c, err := corpus.Load(root)
	if err != nil {
		return err
	}
	var sources []string
	var y []int
	index := map[string]int{}
	for _, s := range c.Samples {
		if s.Year != c.Samples[0].Year || s.Author == "ChatGPT" {
			continue
		}
		if _, ok := index[s.Author]; !ok {
			index[s.Author] = len(index)
		}
		sources = append(sources, s.Source)
		y = append(y, index[s.Author])
	}
	if len(sources) == 0 {
		return fmt.Errorf("no human samples under %s", root)
	}
	workers := runtime.GOMAXPROCS(0)
	t := time.Now()
	feats, err := stylometry.ExtractAll(sources, stylometry.ExtractConfig{Workers: workers})
	if err != nil {
		return err
	}
	pl["stylometry.extract_all_s"] = time.Since(t).Seconds()
	vec := stylometry.NewVectorizer(feats, stylometry.VectorizerConfig{})
	d := &ml.Dataset{Y: y, NumClasses: len(index), FeatureNames: vec.FeatureNames()}
	for _, f := range feats {
		d.X = append(d.X, vec.Vector(f))
	}
	t = time.Now()
	reduced, _ := ml.ReduceByInformationGain(d, 300, 10)
	pl["ml.infogain_s"] = time.Since(t).Seconds()
	cfg := ml.ForestConfig{NumTrees: 100, Seed: seed, Workers: workers}
	t = time.Now()
	if _, err := ml.FitForest(reduced, cfg); err != nil {
		return err
	}
	pl["ml.fit_forest_s"] = time.Since(t).Seconds()
	folds, err := ml.StratifiedKFold(reduced.Y, 4, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := ml.CrossValidateForest(reduced, folds, cfg); err != nil {
		return err
	}
	pl["ml.cv_s"] = time.Since(t).Seconds()
	return nil
}

// printLedger splits the traced phase's mean client latency (send to
// answer) into its layers. Every row but the batcher's is measured;
// that one is the residual.
func printLedger(w io.Writer, wl workload, l ledger, n int) {
	fmt.Fprintf(w, "ledger %s: mean client latency %.3f ms over %d requests answered 200\n", wl.name, l.Client, n)
	row := func(name string, v float64, note string) {
		share := 0.0
		if l.Client > 0 {
			share = 100 * v / l.Client
		}
		fmt.Fprintf(w, "  %-22s %9.3f ms %6.1f%%  %s\n", name, v, share, note)
	}
	row("transport+encode", l.Transport(), "client mean - front server mean (/metrics)")
	row("fleet hop", l.Hop(), "router mean - replica mean (/metrics)")
	row("decode", l.Decode, "replayed json.Unmarshal")
	row("cache+extraction", l.Extraction, "replayed featcache + ExtractVec in request order")
	row("score", l.Score, "replayed ProbaFeatures/DetectFeatures")
	row("batcher.wait_ms", l.Wait(), "RESIDUAL: replica mean - decode - extraction - score")
}
