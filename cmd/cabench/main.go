// cabench runs one throughput sweep of the paper's evaluation: a data
// structure crossed with reclamation schemes, thread counts, and update
// rates, reporting operations per million simulated cycles. Trials fan out
// across OS threads (-workers, default GOMAXPROCS); results are identical
// to -workers 1, just faster.
//
// Examples:
//
//	cabench -ds list -updates 0,10,100 -threads 1,2,4,8,16,32   # Figure 1 top
//	cabench -ds bst -range 10000                                # Figure 1 bottom
//	cabench -ds hash                                            # Figure 2 top
//	cabench -ds stack                                           # Figure 2 bottom
//	cabench -ds list -schemes ca,rcu -check                     # with safety assertions
//	cabench -ds list -trials 3 -workers 8                       # parallel trial execution
//	cabench -ds list -trials 3 -store results/store             # warm cells skip simulation
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"condaccess/internal/bench"
	"condaccess/internal/cli"
	"condaccess/internal/obs"
	"condaccess/internal/trace"
)

// options is the parsed command line.
type options struct {
	cfg       bench.SweepConfig
	csvPath   string
	storePath string
	verbose   bool
	tail      bool
	timeline  bool
	tracePath string
	flags     cli.Flags

	// shardIdx/shardOf select worker mode (-shard I/N): run only this
	// shard's jobs into the store, render no table. shardOf == 0 means
	// unsharded.
	shardIdx, shardOf int
	// farm selects coordinator mode (-farm N): spawn N worker processes,
	// merge their shard stores, then render the sweep warm.
	farm int
}

// parseArgs parses the flag set into a SweepConfig, applying the paper's
// per-structure key-range defaults. Split out of main for testability.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := cli.NewFlagSet("cabench", stderr)
	var (
		ds      = fs.String("ds", "list", "data structure: "+strings.Join(bench.Structures(), ", "))
		schemes = fs.String("schemes", "none,ca,ibr,rcu,qsbr,hp,he", "comma-separated schemes")
		threads = fs.String("threads", "1,2,4,8,16,32", "comma-separated thread counts")
		updates = fs.String("updates", "0,10,100", "comma-separated update percentages")
		ops     = fs.Int("ops", 3000, "operations per thread (paper: 3000)")
		keys    = fs.Uint64("range", 0, "key range (default: paper's per-structure value)")
		buckets = fs.Int("buckets", 128, "hash table buckets")
		seed    = fs.Uint64("seed", 1, "base RNG seed")
		trials  = fs.Int("trials", 1, "trials per point, throughput averaged (paper: 3)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel trial workers (1: sequential)")
		check   = fs.Bool("check", false, "enable use-after-free and Theorem 6/7 assertions")
		csvPath = fs.String("csv", "", "also write long-form CSV to this file")
		store   = fs.String("store", "", "content-addressed result store directory (warm cells skip simulation)")
		verbose = fs.Bool("v", false, "print each point as it completes")
		dist    = fs.String("dist", "uniform", "key distribution: uniform or zipf")
		lat     = fs.Bool("lat", false, "also print per-point latency percentiles")
		tail    = fs.Bool("tail", false, "print the tail-latency table: per-point percentiles over all trials merged")
		tline   = fs.Bool("timeline", false, "record and print windowed sim-time metric timelines per point")
		tlWin   = fs.Uint64("timeline-window", 0, "timeline window size in simulated cycles (0: default)")
		trPath  = fs.String("trace", "", "write a Chrome trace_event JSON file of every simulated trial (forces -workers 1)")
		shard   = fs.String("shard", "", "worker mode: run only shard I/N of the sweep's job list into -store, render no table")
		farm    = fs.Int("farm", 0, "coordinator mode: spawn N worker processes over private shard stores, merge into -store, render warm")
	)
	var fl cli.Flags
	fl.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}

	threadList, err := splitInts(*threads)
	if err != nil {
		return options{}, fmt.Errorf("-threads: %w", err)
	}
	updateList, err := splitInts(*updates)
	if err != nil {
		return options{}, fmt.Errorf("-updates: %w", err)
	}
	wk := *workers
	if *trPath != "" {
		// Deterministic trace files need one worker: one sink recording
		// trials in sweep order.
		wk = 1
	}
	shardIdx, shardOf := 0, 0
	if *shard != "" {
		var err error
		if shardIdx, shardOf, err = parseShard(*shard); err != nil {
			return options{}, err
		}
	}
	// Farm-mode plumbing: both modes fill a store (that is the whole point),
	// and neither composes with tracing, which needs one sequential process.
	if shardOf > 0 && *farm > 0 {
		return options{}, errors.New("pick one of -shard (worker) and -farm (coordinator)")
	}
	if (shardOf > 0 || *farm > 0) && *store == "" {
		return options{}, errors.New("-shard and -farm require -store")
	}
	if (shardOf > 0 || *farm > 0) && *trPath != "" {
		return options{}, errors.New("-trace needs a single sequential process; drop -shard/-farm")
	}
	if shardOf > 0 && *csvPath != "" {
		return options{}, errors.New("-shard renders no sweep output; ask the coordinator (or a warm re-run) for -csv")
	}
	if *farm < 0 {
		return options{}, fmt.Errorf("-farm %d must be non-negative", *farm)
	}
	return options{
		cfg: bench.SweepConfig{
			DS:       *ds,
			Schemes:  cli.SplitList(*schemes),
			Threads:  threadList,
			Updates:  updateList,
			KeyRange: cli.KeyRange(*ds, *keys), Ops: *ops, Buckets: *buckets,
			Seed: *seed, Check: *check, Trials: *trials, Workers: wk,
			Dist: *dist, RecordLatency: *lat, RecordTail: *tail,
			RecordTimeline: *tline, TimelineWindow: *tlWin,
		},
		csvPath:   *csvPath,
		storePath: *store,
		verbose:   *verbose,
		tail:      *tail,
		timeline:  *tline,
		tracePath: *trPath,
		flags:     fl,
		shardIdx:  shardIdx,
		shardOf:   shardOf,
		farm:      *farm,
	}, nil
}

// parseShard parses "I/N" into a 0-based shard index and shard count.
func parseShard(s string) (idx, of int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		if idx, err = strconv.Atoi(i); err == nil {
			of, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || of < 1 || idx < 0 || idx >= of {
		return 0, 0, fmt.Errorf("-shard %q: want I/N with 0 <= I < N", s)
	}
	return idx, of, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced, on the exit contract
// every command shares (internal/cli), so the failure modes (bad flags,
// unopenable store, unwritable CSV) are pinned by tests.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	return cli.Run("cabench", args, stdout, stderr, err, cli.Spec{
		Flags:  opt.flags,
		Config: opt.cfg, StoreDir: opt.storePath,
		TraceOut: opt.tracePath, Timeline: opt.timeline,
		Body: func(rec *obs.Rec) error {
			if opt.farm > 0 {
				return farmRun(opt, rec, stdout, stderr)
			}
			return cli.WithStore(opt.storePath, rec, stderr, func(st bench.TrialStore) error {
				if opt.shardOf > 0 {
					return shardRun(opt, rec, st, stdout)
				}
				return sweep(opt, rec, st, stdout, stderr)
			})
		},
	})
}

// sweep executes the parsed sweep through store (nil for none) and renders
// every output. Observability (rec may be nil) is out-of-band: stdout is
// byte-identical with or without it.
func sweep(opt options, rec *obs.Rec, store bench.TrialStore, stdout, stderr io.Writer) (err error) {
	cfg := opt.cfg
	cfg.Obs, cfg.Store = rec, store
	var sink *trace.Sink
	if opt.tracePath != "" {
		sink = &trace.Sink{}
		cfg.Trace = sink
	}
	lat := cfg.RecordLatency
	var progress func(bench.SweepPoint)
	if opt.verbose || lat {
		total := len(cfg.Schemes) * len(cfg.Threads) * len(cfg.Updates)
		n := 0
		progress = func(p bench.SweepPoint) {
			n++
			fmt.Fprintf(stderr, "  [%3d/%3d] %-5s t=%-2d u=%3d%%: %10.1f ops/Mcyc",
				n, total, p.Scheme, p.Threads, p.UpdatePct, p.Throughput)
			if lat {
				l := p.Tail
				fmt.Fprintf(stderr, "  p50=%d p99=%d p99.9=%d max=%d", l.P50, l.P99, l.P999, l.Max)
			}
			fmt.Fprintln(stderr)
		}
	}
	points, err := bench.Sweep(cfg, progress)
	if err != nil {
		return err
	}
	if sink != nil {
		if err := sink.WriteFile(opt.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: %d events -> %s\n", sink.Len(), opt.tracePath)
	}
	for _, u := range cfg.Updates {
		fmt.Fprintf(stdout, "== %s, %d%% updates (%di-%dd), %d keys, %d ops/thread [ops/Mcyc] ==\n",
			cfg.DS, u, u/2, u/2, cfg.KeyRange, cfg.Ops)
		fmt.Fprint(stdout, bench.FormatTable(points, u))
		fmt.Fprintln(stdout)
	}
	if opt.tail {
		printTail(stdout, points)
	}
	if opt.timeline {
		printTimelines(stdout, points)
	}
	if opt.csvPath == "" {
		return nil
	}
	f, err := cli.Create(opt.csvPath)
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	return bench.WriteCSV(f, cfg.DS, points)
}

// printTail renders the per-point tail-latency table: percentiles of the
// point's trials merged into one histogram (so every recorded op counts,
// not just the last trial's), with max and mean exact.
func printTail(w io.Writer, points []bench.SweepPoint) {
	fmt.Fprintln(w, "== tail latency [cycles], all trials merged ==")
	fmt.Fprintf(w, "%-6s %4s %4s %10s %8s %8s %8s %8s %10s\n",
		"scheme", "t", "u%", "samples", "p50", "p99", "p99.9", "max", "mean")
	for _, p := range points {
		s := p.Tail
		fmt.Fprintf(w, "%-6s %4d %4d %10d %8d %8d %8d %8d %10.1f\n",
			p.Scheme, p.Threads, p.UpdatePct, s.Samples, s.P50, s.P99, s.P999, s.Max, s.Mean)
	}
	fmt.Fprintln(w)
}

// printTimelines renders each point's windowed sim-time metrics series,
// all trials merged window by window (trials share the measured cycle axis).
func printTimelines(w io.Writer, points []bench.SweepPoint) {
	fmt.Fprintln(w, "== sim-time timelines [per window], all trials merged ==")
	for _, p := range points {
		if p.Timeline == nil {
			continue
		}
		fmt.Fprintf(w, "-- %s t=%d u=%d%% --\n", p.Scheme, p.Threads, p.UpdatePct)
		p.Timeline.WriteTable(w)
		fmt.Fprintln(w)
	}
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range cli.SplitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
