// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator and the result store, checks the outputs,
// and prints its metrics by name with units; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of the named workload.
// With --trace 1 the run measures every layer of all three workloads from
// outside — it times calls into the public functions of bench and lab and
// divides host time by the simulated counts every Result carries — and
// prints the per-layer metrics instead, together with the overhead of that
// tracing against untraced passes in the same process.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --aa 10 --seconds 35   # A/A steadiness report
//
// NOTES.md beside this file explains the workloads, the metrics and the
// bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	inject   string // fault injection for the benchmark's own tests
	work     string // scratch root for stores and span logs
	aa       int    // > 0: A/A steadiness report over two sets of this many runs
}

// injections are the faults --inject can plant, each of which a correct
// benchmark must report as a failed check.
var injections = []string{"flip-render", "force-miss", "bad-digest"}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&opt.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 35, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&opt.inject, "inject", "", "plant a fault the checks must catch: "+fmt.Sprint(injections))
	fs.StringVar(&opt.work, "work", ".bench_build/work", "scratch directory for stores and span logs")
	fs.IntVar(&opt.aa, "aa", 0, "run each workload in two sets of this many runs and report each metric's spread and shift")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return options{}, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		return options{}, fmt.Errorf("--seconds %g: want a positive length", opt.seconds)
	}
	if opt.inject != "" && !slices.Contains(injections, opt.inject) {
		return options{}, fmt.Errorf("--inject %q: want one of %v", opt.inject, injections)
	}
	if opt.aa > 0 {
		if opt.workload != "" && workloadByName(opt.workload) == nil {
			return options{}, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames())
		}
		return opt, nil
	}
	if workloadByName(opt.workload) == nil {
		return options{}, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames())
	}
	return opt, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns the exit code: 0 when every check
// passed, 1 when a check failed (the result line is still printed, with
// correct false) or the benchmark could not run (no result line), 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	if opt.aa > 0 {
		if err := runAA(opt, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	rep, err := runOnce(opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d checks or trials failed\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// runOnce sets up a private scratch directory, runs the measurement or the
// traced run, and removes the scratch stores again.
func runOnce(opt options, stderr io.Writer) (*report, error) {
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	scratch, err := os.MkdirTemp(opt.work, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)
	e := &env{scratch: scratch, seed: opt.seed, inject: opt.inject}
	if opt.trace {
		rep, spans, err := traced(e, workloadByName(opt.workload), stderr)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(opt.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := spans.write(path); err != nil {
			return nil, err
		}
		spans.summarize(stderr)
		fmt.Fprintf(stderr, "spans: %d written to %s\n", spans.len(), path)
		return rep, nil
	}
	return measure(e, workloadByName(opt.workload), opt.seconds)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics (in the order they were set, for the
// human-readable lines) and its check counts.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int // trials attempted
	failed    int // failed checks plus failed trials
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// failedFrac is failed checks plus failed trials over trials attempted.
func (r *report) failedFrac() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

// print writes one human-readable line per metric, the failed fraction, and
// last the JSON result line.
func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-44s %16.6g %s\n", "failed_frac", r.failedFrac(), "frac")
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		// Unreachable: ratio keeps every value finite.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}
