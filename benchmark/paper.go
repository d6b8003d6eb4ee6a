package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// paperScale is the paper-tables workload's fixed experiments scale:
// between -scale quick and -scale paper, with behaviour verification,
// sized so one run takes about ten seconds on a 2-vCPU Xeon. The
// golden output was produced at this scale; the seed does not change
// it, so the byte-for-byte gate holds for every --seed.
var paperScale = []string{"-authors", "64", "-rounds", "12", "-trees", "100", "-verify"}

// paperWarmup is the small experiments run the set-up repeats, so the
// binary and page cache are warm before the measured run.
var paperWarmup = []string{"-authors", "12", "-rounds", "3", "-trees", "24"}

// paperGolden is the reference -json output at paperScale, relative to
// the repository root.
const paperGolden = "benchmark/golden/paper-tables.json"

// paperLimit is the latency limit of one paper-tables run.
const paperLimit = 60 * time.Second

// paperRun is one finished experiments process.
type paperRun struct {
	wall time.Duration
	cpu  time.Duration
	rss  float64 // MiB
	out  []byte  // the -json output
}

// runExperiments runs the experiments binary with -json and any extra
// flags in a fresh directory under dir, and returns its wall time,
// CPU, peak RSS and output.
func runExperiments(ctx context.Context, o options, dir string, args ...string) (paperRun, error) {
	var pr paperRun
	d, err := os.MkdirTemp(dir, "experiments-")
	if err != nil {
		return pr, err
	}
	out := filepath.Join(d, "tables.json")
	args = append(args, "-json", out)
	cmd := exec.CommandContext(ctx, binPath(o, "experiments"), args...)
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	start := time.Now()
	err = cmd.Run()
	pr.wall = time.Since(start)
	if err != nil {
		return pr, fmt.Errorf("experiments %v: %w\n%s", args, err, log.String())
	}
	pr.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		pr.rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	pr.out, err = os.ReadFile(out)
	return pr, err
}

// runPaperTables runs the offline pipeline: experiments -json at the
// fixed scale, compared byte for byte with the golden output.
func runPaperTables(ctx context.Context, o options, dir string, stdout io.Writer) (*result, error) {
	golden, err := os.ReadFile(paperGolden)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return tracePaperTables(ctx, o, dir, golden, stdout)
	}
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t := time.Now()
		if _, err := runExperiments(ctx, o, dir, paperWarmup...); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	// At least one run; another only while it fits in --seconds.
	budget := time.Duration(o.seconds) * time.Second
	var runs []paperRun
	var elapsed time.Duration
	for len(runs) == 0 || elapsed+runs[len(runs)-1].wall <= budget {
		pr, err := runExperiments(ctx, o, dir, paperScale...)
		if err != nil {
			return nil, err
		}
		runs = append(runs, pr)
		elapsed += pr.wall
	}

	res := &result{Attempted: len(runs), Correct: true}
	var walls []float64
	var cpu time.Duration
	ok, good, rss := 0, 0, 0.0
	for _, pr := range runs {
		walls = append(walls, ms(pr.wall))
		cpu += pr.cpu
		rss = max(rss, pr.rss)
		if !bytes.Equal(pr.out, golden) {
			res.Correct = false
			res.Failed++
			fmt.Fprintln(stdout, "paper-tables: -json output differs from", paperGolden)
			continue
		}
		ok++
		if pr.wall <= paperLimit {
			good++
		}
	}
	n := float64(len(runs))
	res.addMetric("setup_s", "s", median(setups))
	res.addMetric("p50_ms", "ms", median(append([]float64(nil), walls...)))
	res.addMetric("goodput_rps", "1/s", float64(good)/elapsed.Seconds())
	res.addMetric("in_limit_share", "ratio", float64(good)/n)
	res.addMetric("full_share", "ratio", float64(ok)/n)
	res.addMetric("server_cpu_us_per_req", "us", us(cpu)/n)
	res.addMetric("wall_s", "s", elapsed.Seconds()/n)
	res.addMetric("cpu_s", "s", cpu.Seconds()/n)
	res.addMetric("peak_rss_mb", "MiB", rss)
	res.addMetric("ok_share", "ratio", float64(ok)/n)
	fmt.Fprintf(stdout, "paper-tables: experiments %v, %d run(s)\n", paperScale, len(runs))
	printMetrics(stdout, "paper-tables", res)
	return res, nil
}

// tracePaperTables warms up, runs the pipeline once untraced and once with CPU
// and heap profiles, then times its stages in process: corpus
// generation (gencorpus at the same scale, with verification), layer
// replay over the first year's sources, and the training pipeline on
// that year's human samples.
func tracePaperTables(ctx context.Context, o options, dir string, golden []byte, stdout io.Writer) (*result, error) {
	if _, err := runExperiments(ctx, o, dir, paperWarmup...); err != nil {
		return nil, err
	}
	plain, err := runExperiments(ctx, o, dir, paperScale...)
	if err != nil {
		return nil, err
	}
	cpuProf, memProf := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := append(append([]string(nil), paperScale...), "-cpuprofile", cpuProf, "-memprofile", memProf)
	traced, err := runExperiments(ctx, o, dir, args...)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: 2, Correct: true}
	for _, pr := range []paperRun{plain, traced} {
		if !bytes.Equal(pr.out, golden) {
			res.Correct = false
			res.Failed++
		}
	}
	pl := perLayer{"trace.overhead_ms": ms(traced.wall - plain.wall)}
	cpu := map[string]int64{}
	b, err := os.ReadFile(cpuProf)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(b)
	if err != nil {
		return nil, err
	}
	if err := p.flatByBucket("cpu", cpu); err != nil {
		return nil, err
	}
	addCPUShares(pl, cpu)
	if b, err = os.ReadFile(memProf); err != nil {
		return nil, err
	}
	if p, err = parseProfile(b); err != nil {
		return nil, err
	}
	alloc, err := p.total("alloc_space")
	if err != nil {
		return nil, err
	}
	pl["runtime.alloc_kb_per_req"] = float64(alloc) / 1024

	corpusDir := filepath.Join(dir, "corpus")
	t := time.Now()
	if err := runTool(ctx, binPath(o, "gencorpus"), "-out", corpusDir, "-years", "2017,2018,2019",
		"-authors", paperScale[1], "-rounds", paperScale[3], "-seed", strconv.Itoa(1)); err != nil {
		return nil, err
	}
	pl["corpus.generate_s"] = time.Since(t).Seconds()
	sources, err := readSources(filepath.Join(corpusDir, "gcj2017"))
	if err != nil {
		return nil, err
	}
	rp, _, err := replaySources(ctx, sources, nil, o.seed)
	if err != nil {
		return nil, err
	}
	rp.into(pl)
	if err := replayPipeline(corpusDir, o.seed, pl); err != nil {
		return nil, err
	}
	pl.into(res)
	printMetrics(stdout, "paper-tables (traced)", res)
	return res, nil
}
