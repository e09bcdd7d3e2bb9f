// cascenario runs phased, role-based, time-varying workload scenarios on
// the simulator and prints a per-phase breakdown: operations, the phase's
// simulated wall-clock window, throughput within the window, retries, cache
// miss rate, and live nodes at the phase boundary. Scenarios come from the
// built-in presets (-preset, -list) or a JSON file (-file); the binding
// (structure, schemes, threads, key range, seed) comes from flags.
//
// Examples:
//
//	cascenario -list                                   # show presets
//	cascenario -preset read-burst -ds list -schemes ca,rcu
//	cascenario -preset churn-drain -ds bst -threads 16 -lat
//	cascenario -preset mixed-role -ds hash -schemes ca,hp,ibr
//	cascenario -file myscenario.json -ds queue -schemes ca
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"condaccess/internal/bench"
	"condaccess/internal/cli"
	"condaccess/internal/obs"
	"condaccess/internal/scenario"
	"condaccess/internal/trace"
)

// options is the parsed command line.
type options struct {
	sw        bench.ScenarioWorkload
	schemes   []string
	storePath string
	lat       bool
	tail      bool
	timeline  bool
	tracePath string
	list      bool
	flags     cli.Flags
}

// parseArgs parses the flag set into a scenario binding, applying the
// paper's per-structure key-range defaults. Split out of main for
// testability.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := cli.NewFlagSet("cascenario", stderr)
	var (
		preset  = fs.String("preset", "", "built-in scenario name (see -list)")
		file    = fs.String("file", "", "load scenario from this JSON file")
		list    = fs.Bool("list", false, "print the built-in scenarios and exit")
		ds      = fs.String("ds", "list", "data structure: "+strings.Join(bench.Structures(), ", "))
		schemes = fs.String("schemes", "ca,rcu", "comma-separated reclamation schemes")
		threads = fs.Int("threads", 8, "simulated threads")
		keys    = fs.Uint64("range", 0, "key range (default: paper's per-structure value)")
		buckets = fs.Int("buckets", 128, "hash table buckets")
		seed    = fs.Uint64("seed", 1, "base RNG seed")
		check   = fs.Bool("check", false, "enable use-after-free and Theorem 6/7 assertions")
		dist    = fs.String("dist", "uniform", "default key distribution for phases that name none")
		lat     = fs.Bool("lat", false, "also print per-phase latency percentiles")
		tail    = fs.Bool("tail", false, "print per-phase tail-latency tables: per-kind and per-attribution percentiles")
		tline   = fs.Bool("timeline", false, "record and print windowed sim-time metric timelines per phase")
		tlWin   = fs.Uint64("timeline-window", 0, "timeline window size in simulated cycles (0: default)")
		trPath  = fs.String("trace", "", "write a Chrome trace_event JSON file of every simulated trial")
		store   = fs.String("store", "", "content-addressed result store directory (warm trials skip simulation)")
	)
	var fl cli.Flags
	fl.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	// -version and -list need no scenario; they win before the
	// one-of-preset/file/list requirement can reject the command line.
	if fl.Version {
		return options{flags: fl}, nil
	}
	if *list {
		return options{list: true}, nil
	}

	var sc scenario.Scenario
	var err error
	switch {
	case *preset != "" && *file != "":
		return options{}, errors.New("-preset and -file are mutually exclusive")
	case *preset != "":
		sc, err = scenario.Preset(*preset)
	case *file != "":
		sc, err = scenario.Load(*file)
	default:
		return options{}, errors.New("one of -preset, -file, or -list is required")
	}
	if err != nil {
		return options{}, err
	}

	schemeList := cli.SplitList(*schemes)
	if len(schemeList) == 0 {
		return options{}, errors.New("-schemes: empty list")
	}
	if min := sc.MinThreads(); *threads < min {
		return options{}, fmt.Errorf("scenario %q needs at least %d threads (role table)", sc.Name, min)
	}
	return options{
		sw: bench.ScenarioWorkload{
			DS:       *ds,
			Threads:  *threads,
			KeyRange: cli.KeyRange(*ds, *keys), Buckets: *buckets,
			Seed: *seed, Check: *check, Dist: *dist,
			RecordLatency: *lat, RecordTail: *tail,
			RecordTimeline: *tline, TimelineWindow: *tlWin,
			Scenario: sc,
		},
		schemes:   schemeList,
		storePath: *store,
		lat:       *lat,
		tail:      *tail,
		timeline:  *tline,
		tracePath: *trPath,
		flags:     fl,
	}, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced, on the exit contract
// every command shares (internal/cli), so the failure modes (bad flags,
// unreadable scenario file, unopenable store) are pinned by tests.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err == nil && opt.list { // no session: -list records nothing
		printPresets(stdout)
		return 0
	}
	return cli.Run("cascenario", args, stdout, stderr, err, cli.Spec{
		Flags: opt.flags,
		Config: struct {
			Schemes  []string
			Scenario bench.ScenarioWorkload
		}{opt.schemes, opt.sw},
		StoreDir: opt.storePath, TraceOut: opt.tracePath, Timeline: opt.timeline,
		Body: func(rec *obs.Rec) error {
			return cli.WithStore(opt.storePath, rec, stderr, func(st bench.TrialStore) error {
				return runScenarios(opt, rec, st, stdout, stderr)
			})
		},
	})
}

// runScenarios executes one scenario trial per scheme, each declared as one
// observability point (rec may be nil), through store (nil for none).
func runScenarios(opt options, rec *obs.Rec, store bench.TrialStore, stdout, stderr io.Writer) error {
	var sink *trace.Sink
	if opt.tracePath != "" {
		sink = &trace.Sink{}
	}
	sws := make([]bench.ScenarioWorkload, len(opt.schemes))
	for i, scheme := range opt.schemes {
		sws[i] = opt.sw
		sws[i].Scheme = scheme
	}
	_, err := bench.Exec{Workers: 1, Store: store, Obs: rec, Trace: sink}.RunScenarios(sws, nil, func(i int, res bench.ScenarioResult) {
		printResult(stdout, sws[i], res, opt.lat)
		if opt.tail {
			printTail(stdout, res)
		}
		if opt.timeline {
			printTimeline(stdout, res)
		}
	})
	if err != nil {
		return err
	}
	if sink != nil {
		if err := sink.WriteFile(opt.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: %d events -> %s\n", sink.Len(), opt.tracePath)
	}
	return nil
}

// printPresets renders the built-in scenario catalog.
func printPresets(w io.Writer) {
	for _, name := range scenario.PresetNames() {
		sc, _ := scenario.Preset(name)
		fmt.Fprintf(w, "%s\n", name)
		for _, r := range sc.Roles {
			n := fmt.Sprintf("%d", r.Count)
			if r.Count == 0 {
				n = "rest"
			}
			fmt.Fprintf(w, "  role  %-12s x%-4s %s\n", r.Name, n, weightsString(r.Weights))
		}
		for _, ph := range sc.Phases {
			dur := fmt.Sprintf("%d ops", ph.Ops)
			if ph.Cycles > 0 {
				dur = fmt.Sprintf("%d cycles", ph.Cycles)
			}
			extra := ""
			if ph.Dist != "" {
				extra += " dist=" + ph.Dist
			}
			if ph.KeyShift != 0 {
				extra += fmt.Sprintf(" shift=%.2f", ph.KeyShift)
			}
			if ph.Profile.Kind != "" && ph.Profile.Kind != scenario.ProfileConstant {
				extra += " profile=" + ph.Profile.Kind
			}
			fmt.Fprintf(w, "  phase %-12s %-10s i%d/d%d/r%d%s\n",
				ph.Name, dur, ph.Weights.Insert, ph.Weights.Delete, ph.Weights.Read, extra)
		}
	}
}

func weightsString(w *scenario.Weights) string {
	if w == nil {
		return "(phase mix)"
	}
	return fmt.Sprintf("i%d/d%d/r%d", w.Insert, w.Delete, w.Read)
}

// printResult renders one scheme's per-phase table.
func printResult(w io.Writer, sw bench.ScenarioWorkload, res bench.ScenarioResult, lat bool) {
	fmt.Fprintf(w, "== scenario %s: %s/%s, t=%d, range %d, seed %d ==\n",
		res.ScenarioName, sw.DS, sw.Scheme, sw.Threads, sw.KeyRange, sw.Seed)
	fmt.Fprintf(w, "%-14s %8s %10s %10s %8s %7s %7s", "phase", "ops", "cycles", "ops/Mcyc", "retries", "l1miss", "live")
	if lat {
		fmt.Fprintf(w, " %7s %7s %8s", "p50", "p99", "max")
	}
	fmt.Fprintln(w)
	row := func(name string, seg bench.PhaseSegment, throughput string) {
		fmt.Fprintf(w, "%-14s %8d %10d %10s %8d %6.2f%% %7d",
			name, seg.Ops, seg.Cycles, throughput, seg.Retries, missPct(seg), seg.LiveNodes)
		if lat {
			fmt.Fprintf(w, " %7d %7d %8d", seg.Latency.P50, seg.Latency.P99, seg.Latency.Max)
		}
		fmt.Fprintln(w)
	}
	row("prefill", res.Prefill, "-")
	for _, seg := range res.Phases {
		row(seg.Name, seg, fmt.Sprintf("%.1f", seg.Throughput))
	}
	// Every total-row column covers the measured run only, like the phase
	// rows above it (the prefill's share has its own row).
	total := bench.PhaseSegment{
		Ops: res.Ops, Cycles: res.Cycles,
		Retries: res.Retries - res.Prefill.Retries,
		Cache:   res.MeasuredCache(), LiveNodes: res.Mem.NodeLive(),
		Latency: res.Latency,
	}
	row("total", total, fmt.Sprintf("%.1f", res.Throughput))
	fmt.Fprintln(w)
}

// printTail renders the tail-latency tables: one per phase plus the trial
// total. Each table partitions the window's ops twice — by op kind
// (insert+delete+read = ops) and by attribution (useful+reclaim+retry =
// ops) — and reports the reclamation-pause distribution on its own row
// (count = ops that absorbed a scan pass, not a partition).
func printTail(w io.Writer, res bench.ScenarioResult) {
	for _, seg := range res.Phases {
		fmt.Fprintf(w, "-- tail latency [cycles]: phase %s (%d ops) --\n%s", seg.Name, seg.Ops, seg.Tail)
	}
	fmt.Fprintf(w, "-- tail latency [cycles]: total (%d ops) --\n%s\n", res.Ops, res.Tail)
}

// printTimeline renders the windowed sim-time metrics tables: one per phase
// plus the trial total. All phases share the trial's measured cycle axis, so
// a later phase's table leads with the zero windows its predecessors filled.
func printTimeline(w io.Writer, res bench.ScenarioResult) {
	for _, seg := range res.Phases {
		if seg.Timeline == nil {
			continue
		}
		fmt.Fprintf(w, "-- timeline [per window]: phase %s (%d ops) --\n", seg.Name, seg.Ops)
		seg.Timeline.WriteTable(w)
	}
	if res.Timeline != nil {
		fmt.Fprintf(w, "-- timeline [per window]: total (%d ops) --\n", res.Ops)
		res.Timeline.WriteTable(w)
		fmt.Fprintln(w)
	}
}

// missPct is the segment's L1 miss rate in percent.
func missPct(seg bench.PhaseSegment) float64 {
	acc := seg.Cache.L1Hits + seg.Cache.L1Misses
	if acc == 0 {
		return 0
	}
	return 100 * float64(seg.Cache.L1Misses) / float64(acc)
}
