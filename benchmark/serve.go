package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gptattr/internal/fleet"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// openShare is the share of --seconds spent in the fixed-rate phase;
// the rest is the closed-loop saturation phase.
const openShare = 0.75

// stream numbers keep the seeded random streams independent.
const (
	streamOrder = iota + 1
	streamSchedule
	streamTraceSchedule
	streamHostile
)

func seeded(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// deployment is the set of server processes under test.
type deployment struct {
	servers  []*proc  // attrserve replicas
	router   *proc    // attrrouter, or nil
	replicas []string // replica base URLs
	front    string   // base URL the load is sent to
	pprof    []string // replica pprof addresses (traced runs)
}

func (d *deployment) procs() []*proc {
	ps := append([]*proc(nil), d.servers...)
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return ps
}

// stop shuts the router down first, then the replicas.
func (d *deployment) stop() error {
	var first error
	if d.router != nil {
		if err := d.router.stop(); err != nil {
			first = err
		}
	}
	for _, s := range d.servers {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cpu sums the CPU time of every process under test.
func (d *deployment) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range d.procs() {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSS sums VmHWM over every process under test, in MiB.
func (d *deployment) peakRSS() (float64, error) {
	total := 0.0
	for _, p := range d.procs() {
		m, err := procHWM(p.pid())
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// serveRun is one set-up serving workload, ready for load.
type serveRun struct {
	w        workload
	dep      *deployment
	dir      string // everything the set-up wrote
	models   string
	human    string        // training corpus (human authors), for the pipeline replay
	sources  []string      // working set in its seeded order, then adversarial sources
	ws       int           // working-set size: sources[:ws]
	hostPos  []int         // position of the adversarial request in each block of hostileEvery
	genTime  time.Duration // gencorpus wall time for the serving corpus
	loader   *loader
	setupDur time.Duration
}

// reqAt is request i of the workload's deterministic sequence:
// endpoints alternate, and sources walk the working set in its seeded
// order, the same order on every pass. With hostileEvery set, one
// request per block is the block's own adversarial source instead.
func (r *serveRun) reqAt(i int) request {
	ep := "attribute"
	if i%2 == 1 {
		ep = "detect"
	}
	if e := r.w.hostileEvery; e > 0 {
		block := i / e
		if i%e == r.hostPos[block%len(r.hostPos)] {
			return request{src: r.ws + block%len(r.hostPos), endpoint: ep, hostile: true}
		}
	}
	return request{src: i % r.ws, endpoint: ep}
}

// saturationCeiling bounds the closed-loop request rate the drawn
// adversarial sources cover; past it they repeat (and may be served
// from the feature cache).
const saturationCeiling = 1500

// setupServe performs the workload's set-up in dir: corpus generation,
// model training, server start until /healthz answers, and cache
// warm-up. Everything it does is timed as set-up.
func setupServe(ctx context.Context, o options, w workload, dir string, profile bool) (*serveRun, error) {
	start := time.Now()
	r := &serveRun{w: w, dir: dir, models: filepath.Join(dir, "models"), human: filepath.Join(dir, "human")}
	seed := strconv.FormatInt(o.seed, 10)
	gc := binPath(o, "gencorpus")
	corpusDir := filepath.Join(dir, "corpus")
	t0 := time.Now()
	if err := runTool(ctx, gc, "-out", corpusDir, "-years", w.corpus.years,
		"-authors", strconv.Itoa(w.corpus.authors), "-rounds", strconv.Itoa(w.corpus.rounds),
		"-skip-verify", "-seed", seed); err != nil {
		return nil, err
	}
	r.genTime = time.Since(t0)
	train := filepath.Join(dir, "train")
	ts := trainScale
	if err := runTool(ctx, gc, "-out", train, "-years", ts.years, "-authors", strconv.Itoa(ts.authors),
		"-rounds", strconv.Itoa(ts.rounds), "-skip-verify", "-seed", seed); err != nil {
		return nil, err
	}
	if err := runTool(ctx, gc, "-out", r.human, "-years", ts.years, "-authors", strconv.Itoa(ts.authors),
		"-human-only", "-seed", seed); err != nil {
		return nil, err
	}
	year := "gcj" + strings.Split(ts.years, ",")[0]
	if err := runTool(ctx, binPath(o, "attr"), "-train", filepath.Join(r.human, year),
		"-save-ladder", r.models, "-seed", seed); err != nil {
		return nil, err
	}
	if err := runTool(ctx, binPath(o, "gptdetect"), "-human", r.human,
		"-gpt", filepath.Join(train, year, "ChatGPT"), "-save", filepath.Join(r.models, "detector.model"),
		"-seed", seed); err != nil {
		return nil, err
	}

	dep, err := deploy(ctx, o, w, r.models, profile)
	if err != nil {
		return nil, err
	}
	r.dep = dep

	// Reading the corpus and drawing the adversarial sources is the
	// benchmark's own work, not the system's set-up.
	prep := time.Now()
	all, err := readSources(corpusDir)
	if err != nil {
		return r, err
	}
	order := seeded(o.seed, streamOrder)
	order.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if w.workingSet > 0 && len(all) > w.workingSet {
		all = all[:w.workingSet]
	}
	if len(all) < w.minWorkingSet {
		return r, fmt.Errorf("%s: working set %d < required %d distinct sources", w.name, len(all), w.minWorkingSet)
	}
	r.sources, r.ws = all, len(all)
	if w.hostileEvery > 0 {
		hr := seeded(o.seed, streamHostile)
		blocks := int(float64(o.seconds)*(w.rate+saturationCeiling))/w.hostileEvery + 1
		for b := 0; b < blocks; b++ {
			r.hostPos = append(r.hostPos, hr.Intn(w.hostileEvery))
			_, src := hostileSource(hr)
			r.sources = append(r.sources, src)
		}
	}
	r.loader, err = newLoader(dep.front, r.sources, w.budget, runtime.NumCPU())
	if err != nil {
		return r, err
	}
	prepDur := time.Since(prep)
	if w.warm {
		for i := 0; i < r.ws; i++ {
			oc := outcome{req: request{src: i, endpoint: "attribute"}, id: fmt.Sprintf("warm-%d", i)}
			r.loader.do(ctx, &oc)
			if oc.err != nil || oc.status != http.StatusOK {
				return r, fmt.Errorf("warm-up request %d: status %d: %v", i, oc.status, oc.err)
			}
		}
	}
	r.setupDur = time.Since(start) - prepDur
	return r, nil
}

// deploy starts the workload's servers on ephemeral loopback ports and
// waits until the front answers /healthz.
func deploy(ctx context.Context, o options, w workload, models string, profile bool) (*deployment, error) {
	d := &deployment{}
	n := 1
	if w.fleet {
		n = 2
	}
	for i := 0; i < n; i++ {
		args := []string{"-models", models, "-addr", "127.0.0.1:0"}
		if profile {
			args = append(args, "-pprof", "127.0.0.1:0")
		}
		p, addr, err := startServer(ctx, fmt.Sprintf("attrserve-%d", i+1), binPath(o, "attrserve"), args...)
		if err != nil {
			_ = d.stop() // already failing; report the start error
			return nil, err
		}
		d.servers = append(d.servers, p)
		d.replicas = append(d.replicas, "http://"+addr)
		if profile {
			pa, err := p.pprofAddr()
			if err != nil {
				_ = d.stop() // already failing
				return nil, err
			}
			d.pprof = append(d.pprof, pa)
		}
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, base := range d.replicas {
		if err := waitHealthy(ctx, hc, base); err != nil {
			_ = d.stop() // already failing
			return nil, err
		}
	}
	d.front = d.replicas[0]
	if w.fleet {
		var spec []string
		for i, base := range d.replicas {
			spec = append(spec, fmt.Sprintf("r%d=%s", i+1, base))
		}
		p, addr, err := startServer(ctx, "attrrouter", binPath(o, "attrrouter"),
			"-addr", "127.0.0.1:0", "-replicas", strings.Join(spec, ","))
		if err != nil {
			_ = d.stop() // already failing
			return nil, err
		}
		d.router = p
		d.front = "http://" + addr
		if err := waitHealthy(ctx, hc, d.front); err != nil {
			_ = d.stop() // already failing
			return nil, err
		}
	}
	return d, nil
}

// readSources returns the distinct .cc sources under dir, in path order.
func readSources(dir string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".cc") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
		return nil
	})
	return out, err
}

// setupRepeated runs the set-up setupRepeats times, tearing down all
// but the last, and returns the last with the median set-up time.
func setupRepeated(ctx context.Context, o options, w workload, dir string) (*serveRun, float64, error) {
	var times []float64
	var r *serveRun
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			if err := r.dep.stop(); err != nil {
				return nil, 0, err
			}
			r.loader.close()
			if err := os.RemoveAll(r.dir); err != nil {
				return nil, 0, err
			}
		}
		var err error
		r, err = setupServe(ctx, o, w, filepath.Join(dir, fmt.Sprintf("setup-%d", k)), false)
		if err != nil {
			if r != nil && r.dep != nil {
				_ = r.dep.stop() // already failing
			}
			return nil, 0, err
		}
		times = append(times, r.setupDur.Seconds())
	}
	// Flush the set-up's file writes now, so write-back does not
	// overlap the measured phases.
	syscall.Sync()
	return r, median(times), nil
}

// openPhase builds the fixed-rate phase's requests and due times.
func (r *serveRun) openPhase(seed int64, stream int64, dur time.Duration, first int) ([]request, []time.Duration) {
	dues := arrivals(seeded(seed, stream), r.w.rate, dur)
	reqs := make([]request, len(dues))
	for i := range reqs {
		reqs[i] = r.reqAt(first + i)
	}
	return reqs, dues
}

// verdicts sorts a phase's outcomes into failures (transport errors
// and statuses the workload does not allow) and wrong answers,
// checking every 200 against the reference. A 504 for a budgeted
// request is the server's documented answer, not a failure; it counts
// against in_limit_share and ok_share.
type verdicts struct {
	failed, wrong int
	ok            []bool // answered 200 with the reference answer
	firstErr      error
}

func judge(chk *checker, w workload, outs []outcome) verdicts {
	v := verdicts{ok: make([]bool, len(outs))}
	for i, oc := range outs {
		switch {
		case oc.err != nil:
			v.failed++
			if v.firstErr == nil {
				v.firstErr = fmt.Errorf("%s: %w", oc.id, oc.err)
			}
		case oc.status == http.StatusOK:
			if err := chk.check(oc); err != nil {
				v.wrong++
				if v.firstErr == nil {
					v.firstErr = fmt.Errorf("%s: wrong answer: %w", oc.id, err)
				}
				continue
			}
			v.ok[i] = true
		case oc.status == http.StatusGatewayTimeout && w.budget > 0:
		default:
			v.failed++
			if v.firstErr == nil {
				v.firstErr = fmt.Errorf("%s: status %d: %s", oc.id, oc.status, strings.TrimSpace(string(oc.body)))
			}
		}
	}
	return v
}

// runServe is the untraced (--trace 0) or traced run of a serving workload.
func runServe(ctx context.Context, o options, w workload, dir string, stdout io.Writer) (*result, error) {
	if o.trace {
		return traceServe(ctx, o, w, dir, stdout)
	}
	r, setupS, err := setupRepeated(ctx, o, w, dir)
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.dep.stop() }() // idempotent; the checked stop is below
	defer r.loader.close()

	total := time.Duration(o.seconds) * time.Second
	openDur := time.Duration(float64(total) * openShare)
	satDur := total - openDur

	cpu0, err := r.dep.cpu()
	if err != nil {
		return nil, err
	}
	reqs, dues := r.openPhase(o.seed, streamSchedule, openDur, 0)
	openOut := r.loader.openLoop(ctx, "open", reqs, dues)
	cpu1, err := r.dep.cpu()
	if err != nil {
		return nil, err
	}
	first := len(openOut)
	satOut := r.loader.closedLoop(ctx, "sat", func(i int) request { return r.reqAt(first + i) }, satDur)
	cpu2, err := r.dep.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := r.dep.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := r.dep.stop(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	chk, err := newChecker(r.models, r.sources)
	if err != nil {
		return nil, err
	}
	ov, sv := judge(chk, w, openOut), judge(chk, w, satOut)
	res := &result{
		Attempted: len(openOut) + len(satOut),
		Failed:    ov.failed + ov.wrong + sv.failed + sv.wrong,
		Correct:   ov.wrong+sv.wrong == 0,
	}
	for _, e := range []error{ov.firstErr, sv.firstErr} {
		if e != nil {
			fmt.Fprintln(stdout, "first problem:", e)
			break
		}
	}
	m := summarizeOpen(openOut, ov)
	goodput := goodputMedian(satOut, sv.ok, satDur)
	okAll := 0
	for _, v := range [][]bool{ov.ok, sv.ok} {
		for _, b := range v {
			if b {
				okAll++
			}
		}
	}
	completed := 0
	for _, oc := range openOut {
		if oc.err == nil {
			completed++
		}
	}
	res.addMetric("setup_s", "s", setupS)
	res.addMetric("p50_ms", "ms", m.p50)
	res.addMetric("goodput_rps", "1/s", goodput)
	res.addMetric("in_limit_share", "ratio", m.inLimit)
	res.addMetric("full_share", "ratio", m.full)
	res.addMetric("server_cpu_us_per_req", "us", us(cpu1-cpu0)/float64(max(completed, 1)))
	res.addMetric("wall_s", "s", m.wall.Seconds())
	res.addMetric("cpu_s", "s", (cpu2 - cpu0).Seconds())
	res.addMetric("peak_rss_mb", "MiB", rss)
	res.addMetric("ok_share", "ratio", float64(okAll)/float64(max(res.Attempted, 1)))
	// The tail is printed but not gated: on a shared 2-vCPU host it
	// moved by more than any usable bound between runs of one commit.
	fmt.Fprintf(stdout, "%s: seed %d, %d distinct sources (+%d adversarial); open loop %d requests at %.0f/s (p%.2f %.3f ms), saturation %d requests in %v with %d connections\n",
		w.name, o.seed, r.ws, len(r.sources)-r.ws, len(openOut), w.rate, m.p99pct, m.p99, len(satOut), satDur, r.loader.conns)
	printMetrics(stdout, w.name, res)
	return res, nil
}

// goodputBin is the width of the saturation-phase windows goodput is
// counted in; the reported rate is their median, so a host stall
// costs one window rather than the run's figure.
const goodputBin = 500 * time.Millisecond

// goodputMedian is the median over the phase's whole windows of the
// rate of correct answers within the latency limit, binned by answer
// time.
func goodputMedian(outs []outcome, ok []bool, dur time.Duration) float64 {
	bins := make([]float64, max(int(dur/goodputBin), 1))
	for i, oc := range outs {
		if b := int(oc.done / goodputBin); ok[i] && oc.latency() <= latencyLimit && b < len(bins) {
			bins[b]++
		}
	}
	for i := range bins {
		bins[i] /= goodputBin.Seconds()
	}
	return median(bins)
}

// openSummary holds the fixed-rate phase's end-to-end figures.
type openSummary struct {
	n             int
	p50, p99      float64
	p99pct        float64
	inLimit, full float64
	wall          time.Duration
}

func summarizeOpen(outs []outcome, v verdicts) openSummary {
	var lat []float64
	var s openSummary
	in, ok200, full := 0, 0, 0
	for i, oc := range outs {
		lat = append(lat, ms(oc.latency()))
		if oc.done > s.wall {
			s.wall = oc.done
		}
		if !v.ok[i] {
			continue
		}
		ok200++
		if oc.latency() <= latencyLimit {
			in++
		}
		if oc.level == 0 {
			full++
		}
	}
	s.n = len(lat)
	s.p50 = median(append([]float64(nil), lat...))
	s.p99, s.p99pct = tail(lat, 99)
	s.inLimit = float64(in) / float64(max(len(outs), 1))
	s.full = float64(full) / float64(max(ok200, 1))
	return s
}

// fleetStatus reads the router's /fleet/status.
func fleetStatus(ctx context.Context, l *loader, front string) (fleet.FleetStatus, error) {
	var st fleet.FleetStatus
	b, err := l.get(ctx, front+"/fleet/status")
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(b, &st)
	return st, err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
