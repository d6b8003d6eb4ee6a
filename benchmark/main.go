// Command benchmark is the repository's end-to-end benchmark. It drives
// the binaries built from the tree (attrserve, attrrouter, experiments,
// with gencorpus, attr and gptdetect for set-up) over loopback HTTP
// and files, checks every answer, and prints one JSON result line.
//
// Build everything and run one workload with run.sh:
//
//	bash benchmark/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: serve-cold, serve-warm, serve-hostile, paper-tables (see
// README.md); --workload all runs each in turn and prints one result
// line per workload. With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, and the
// run also prints a latency ledger for the serving workloads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the built binaries
	work     string // scratch root; each run makes a fresh dir under it
}

func main() {
	code := 0
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "serve-cold, serve-warm, serve-hostile, paper-tables, or all of them in turn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with the built binaries")
	fs.StringVar(&o.work, "work", ".bench_build/tmp", "scratch directory root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer stop()
	// Every child process is registered here; whatever path leaves
	// run, none outlives it.
	defer children.killAll()

	names := []string{o.workload}
	if o.workload == "all" {
		names = append(sortedKeys(workloads), "paper-tables")
	}
	for _, name := range names {
		o.workload = name
		if err := runOne(ctx, o, stdout); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runOne runs one workload in a fresh scratch directory and prints its
// result line.
func runOne(ctx context.Context, o options, stdout io.Writer) error {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch only; a leftover dir is harmless

	var res *result
	switch {
	case o.workload == "paper-tables":
		res, err = runPaperTables(ctx, o, dir, stdout)
	case workloads[o.workload].name != "":
		res, err = runServe(ctx, o, workloads[o.workload], dir, stdout)
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted: %w", ctx.Err())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errors.New("correctness check failed")
	}
	return nil
}

// addMetric records a metric, refusing values JSON cannot carry.
func (r *result) addMetric(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// printMetrics writes every metric as "name value unit", sorted by name.
func printMetrics(w io.Writer, workload string, r *result) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, r.Attempted, r.Failed, r.Correct)
	for _, n := range sortedKeys(r.Metrics) {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// binPath names one built binary.
func binPath(o options, name string) string { return filepath.Join(o.bin, name) }
