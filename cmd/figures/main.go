// figures regenerates every table and figure of the paper's evaluation into
// a results directory, printing panel summaries as it goes:
//
//	fig1list  — lazy list throughput (Fig. 1 top): 0/10/100% updates, 1..32 threads
//	fig1bst   — external BST throughput (Fig. 1 bottom), 10K keys
//	fig2hash  — chaining hash table throughput (Fig. 2 top), 128 buckets
//	fig2stack — Treiber stack throughput (Fig. 2 bottom)
//	fig3mem   — allocated-not-freed trace (Fig. 3), 16 threads, 100% updates
//	assoc     — Section III ablation: L1 associativity vs CA spurious failures
//	tuning    — Section I/V ablation: baselines' reclaim/epoch frequency
//	            sensitivity vs CA's parameter-free operation
//	tail      — Section I tail-latency critique: per-op latency CDFs for CA
//	            vs batch-based reclamation, with pause attribution
//
// Use -quick for a reduced-scale pass (minutes instead of tens of minutes),
// and -store to cache trial results persistently: a re-run (after an
// interruption, or with more figures enabled) only simulates cells the
// store has not seen.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/cache"
	"condaccess/internal/cli"
	"condaccess/internal/latency"
	"condaccess/internal/obs"
	"condaccess/internal/scenario"
	"condaccess/internal/smr"
)

var allSchemes = []string{"none", "ca", "ibr", "rcu", "qsbr", "hp", "he"}

// figOrder is the run order of the figure jobs; parseArgs validates -fig
// against it.
var figOrder = []string{"fig1list", "fig1bst", "fig2hash", "fig2stack", "fig3mem", "assoc", "tuning", "smt", "hmlist", "tail", "timeline"}

// options is the parsed command line: the fully-derived generator (scale
// already resolved from -quick and -trials) plus the figure selection.
type options struct {
	g         generator
	fig       string
	storePath string
	flags     cli.Flags
}

// parseArgs parses the flag set and resolves the experiment scale. Split
// out of main for testability.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := cli.NewFlagSet("figures", stderr)
	var (
		out     = fs.String("out", "results", "output directory for CSV files")
		fig     = fs.String("fig", "all", "which figure: all, "+strings.Join(figOrder, ", "))
		quick   = fs.Bool("quick", false, "reduced scale: fewer threads/ops/trials")
		check   = fs.Bool("check", false, "enable safety assertions (slower)")
		seed    = fs.Uint64("seed", 1, "base seed")
		ntrial  = fs.Int("trials", 0, "override trials per point (0: 3 full / 1 quick)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel trial workers (1: sequential)")
		store   = fs.String("store", "", "content-addressed result store directory (warm cells skip simulation)")
	)
	var fl cli.Flags
	fl.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	if *fig != "all" && !slices.Contains(figOrder, *fig) {
		return options{}, fmt.Errorf("-fig %q: unknown figure (want all, %s)", *fig, strings.Join(figOrder, ", "))
	}

	threads := []int{1, 2, 4, 8, 16, 32}
	ops, trials, memOps := 3000, 3, 5000
	if *quick {
		threads = []int{1, 4, 16, 32}
		ops, trials, memOps = 800, 1, 2000
	}
	if *ntrial > 0 {
		trials = *ntrial
	}
	return options{
		g: generator{
			out: *out, check: *check, seed: *seed,
			threads: threads, ops: ops, trials: trials, memOps: memOps,
			workers: *workers,
		},
		fig:       *fig,
		storePath: *store,
		flags:     fl,
	}, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced, on the exit contract
// every command shares (internal/cli), so the failure modes (bad flags,
// unopenable store, uncreatable output directory, unwritable CSV) are
// pinned by tests.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	return cli.Run("figures", args, stdout, stderr, err, cli.Spec{
		Flags: opt.flags,
		Config: struct {
			Fig     string `json:"fig"`
			Threads []int  `json:"threads"`
			Ops     int    `json:"ops"`
			Trials  int    `json:"trials"`
			MemOps  int    `json:"memOps"`
			Workers int    `json:"workers"`
			Seed    uint64 `json:"seed"`
			Check   bool   `json:"check"`
		}{opt.fig, opt.g.threads, opt.g.ops, opt.g.trials, opt.g.memOps, opt.g.workers, opt.g.seed, opt.g.check},
		StoreDir: opt.storePath,
		Body: func(rec *obs.Rec) error {
			return cli.WithStore(opt.storePath, rec, stderr, func(st bench.TrialStore) error {
				g := opt.g
				g.stdout, g.store, g.rec = stdout, st, rec
				return figures(g, opt.fig)
			})
		},
	})
}

// figures runs the selected figure jobs. Observability (g.rec may be nil)
// is out-of-band: stdout is byte-identical with or without it.
func figures(g generator, fig string) error {
	if err := os.MkdirAll(g.out, 0o755); err != nil {
		return err
	}

	jobs := map[string]func() error{
		"fig1list":  g.fig1list,
		"fig1bst":   g.fig1bst,
		"fig2hash":  g.fig2hash,
		"fig2stack": g.fig2stack,
		"fig3mem":   g.fig3mem,
		"assoc":     g.assoc,
		"tuning":    g.tuning,
		"smt":       g.smt,
		"hmlist":    g.hmlist,
		"tail":      g.tail,
		"timeline":  g.timeline,
	}
	for _, name := range figOrder {
		if fig != "all" && fig != name {
			continue
		}
		start := time.Now()
		fmt.Fprintf(g.stdout, "### %s\n", name)
		if err := jobs[name](); err != nil {
			return err
		}
		fmt.Fprintf(g.stdout, "### %s done in %v\n\n", name, time.Since(start).Round(time.Second))
	}
	return nil
}

type generator struct {
	stdout  io.Writer // panel summaries
	out     string    // CSV directory
	check   bool
	seed    uint64
	threads []int
	ops     int
	trials  int
	memOps  int
	workers int
	store   bench.TrialStore
	rec     *obs.Rec // out-of-band instrumentation; nil disables recording
}

// exec is the trial executor of the ablations' point-by-point
// measurements: cacheable cells on the -workers pool, like the sweeps.
func (g generator) exec() bench.Exec {
	return bench.Exec{Workers: g.workers, Store: g.store, Obs: g.rec}
}

// sweepFig runs one throughput sweep over every scheme and the -threads
// counts at the given update rates, prints a table per rate and writes
// name.csv.
func (g generator) sweepFig(name, ds string, keyRange uint64, updates []int) (err error) {
	cfg := bench.SweepConfig{
		DS: ds, Schemes: allSchemes, Threads: g.threads,
		Updates: updates, KeyRange: keyRange,
		Ops: g.ops, Buckets: 128, Seed: g.seed, Check: g.check, Trials: g.trials,
		Workers: g.workers, Store: g.store, Obs: g.rec,
	}
	points, err := bench.Sweep(cfg, nil)
	if err != nil {
		return err
	}
	for _, u := range cfg.Updates {
		fmt.Fprintf(g.stdout, "-- %s %d%% updates [ops/Mcyc] --\n%s", ds, u, bench.FormatTable(points, u))
	}
	f, err := cli.Create(filepath.Join(g.out, name+".csv"))
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	return bench.WriteCSV(f, ds, points)
}

// paperUpdates are the update rates of the paper's Figures 1 and 2.
var paperUpdates = []int{0, 10, 100}

func (g generator) fig1list() error  { return g.sweepFig("fig1_list", "list", 1000, paperUpdates) }
func (g generator) fig1bst() error   { return g.sweepFig("fig1_bst", "bst", 10000, paperUpdates) }
func (g generator) fig2hash() error  { return g.sweepFig("fig2_hash", "hash", 1000, paperUpdates) }
func (g generator) fig2stack() error { return g.sweepFig("fig2_stack", "stack", 1000, paperUpdates) }

func (g generator) fig3mem() (err error) {
	f, err := cli.Create(filepath.Join(g.out, "fig3_mem.csv"))
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	fmt.Fprintln(f, "scheme,ops,live_nodes")
	ws := make([]bench.Workload, len(allSchemes))
	for i, scheme := range allSchemes {
		ws[i] = bench.Workload{
			DS: "list", Scheme: scheme,
			Threads: 16, KeyRange: 1000, UpdatePct: 100,
			OpsPerThread: g.memOps, Seed: g.seed, Check: g.check,
			FootprintEvery: 1000,
		}
	}
	_, err = g.exec().RunMany(ws, nil, func(i int, res bench.Result) {
		scheme := allSchemes[i]
		last := res.Footprint[len(res.Footprint)-1]
		fmt.Fprintf(g.stdout, "%-5s: final live %5d after %d ops (peak %d)\n",
			scheme, last.Live, last.AfterOps, res.Mem.PeakLive)
		for _, s := range res.Footprint {
			fmt.Fprintf(f, "%s,%d,%d\n", scheme, s.AfterOps, s.Live)
		}
	})
	return err
}

// assoc reproduces the Section III claim that L1 associativity (the tagSet
// capacity bound) has no significant impact on CA, even at low
// associativity. The revocations column counts every revocation: remote
// invalidations, back-invalidations, SMT sibling writes and preemptions as
// well as self-evictions, so it bounds the spurious self-eviction
// revocations from above.
func (g generator) assoc() (err error) {
	f, err := cli.Create(filepath.Join(g.out, "ablation_assoc.csv"))
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	fmt.Fprintln(f, "l1_assoc,ops_per_mcyc,retries,revocations,creads")
	threads := 16
	assocs := []int{2, 4, 8, 16}
	ws := make([]bench.Workload, len(assocs))
	labels := make([]string, len(assocs))
	for i, assoc := range assocs {
		p := cache.DefaultParams(threads)
		p.L1Assoc = assoc
		ws[i] = bench.Workload{
			DS: "list", Scheme: "ca",
			Threads: threads, KeyRange: 1000, UpdatePct: 100,
			OpsPerThread: g.ops, Seed: g.seed, Check: g.check, Cache: p,
		}
		labels[i] = fmt.Sprintf("assoc a=%d", assoc)
	}
	_, err = g.exec().RunMany(ws, labels, func(i int, res bench.Result) {
		fmt.Fprintf(g.stdout, "assoc=%2d: %9.1f ops/Mcyc, retries %6d, revocations %6d (creads %d)\n",
			assocs[i], res.Throughput, res.Retries, res.CA.Revocations, res.CA.CReads)
		fmt.Fprintf(f, "%d,%.2f,%d,%d,%d\n", assocs[i], res.Throughput, res.Retries, res.CA.Revocations, res.CA.CReads)
	})
	return err
}

// smt exercises the paper's Section III SMT integration: the same 16
// hardware threads run on 16 dedicated cores versus 8 cores with 2-way SMT.
// Hyperthread siblings revoke each other's tags on every write to a shared
// line, so CA retries more under SMT; the measurement quantifies the cost.
func (g generator) smt() (err error) {
	f, err := cli.Create(filepath.Join(g.out, "ablation_smt.csv"))
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	fmt.Fprintln(f, "threads_per_core,scheme,ops_per_mcyc,retries")
	var ws []bench.Workload
	var labels []string
	for _, tpc := range []int{1, 2} {
		for _, scheme := range []string{"ca", "rcu"} {
			p := cache.DefaultParams(16)
			p.ThreadsPerCore = tpc
			ws = append(ws, bench.Workload{
				DS: "list", Scheme: scheme,
				Threads: 16, KeyRange: 1000, UpdatePct: 100,
				OpsPerThread: g.ops, Seed: g.seed, Check: g.check, Cache: p,
			})
			labels = append(labels, fmt.Sprintf("smt tpc=%d %s", tpc, scheme))
		}
	}
	_, err = g.exec().RunMany(ws, labels, func(i int, res bench.Result) {
		tpc, scheme := ws[i].Cache.ThreadsPerCore, ws[i].Scheme
		fmt.Fprintf(g.stdout, "smt=%d %-4s: %9.1f ops/Mcyc, retries %d\n", tpc, scheme, res.Throughput, res.Retries)
		fmt.Fprintf(f, "%d,%s,%.2f,%d\n", tpc, scheme, res.Throughput, res.Retries)
	})
	return err
}

// hmlist measures the future-work extension: the Harris-Michael lock-free
// list under Conditional Access versus the reclamation baselines.
func (g generator) hmlist() error {
	return g.sweepFig("ext_hmlist", "hmlist", 1000, []int{0, 100})
}

// tail reproduces the paper's Section I tail-latency critique with the
// streaming histogram pipeline: the lazy list under 100% updates for CA
// (frees one node inline) versus epoch-based reclamation at the paper's
// default batch and at a throughput-chasing large batch. The CSV holds one
// latency CDF per configuration, read straight off the log-bucketed
// histogram (cycles = bucket upper edge, cdf = cumulative sample fraction),
// plus the reclamation-pause CDF — the "long program interruptions"
// themselves, which the attribution split isolates from contention retries.
func (g generator) tail() (err error) {
	f, err := cli.Create(filepath.Join(g.out, "fig_tail_cdf.csv"))
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	fmt.Fprintln(f, "config,series,cycles,cdf")
	configs := []struct {
		name string
		w    bench.Workload
	}{
		{"ca", bench.Workload{Scheme: "ca"}},
		{"rcu_batch30", bench.Workload{Scheme: "rcu", SMR: smr.Options{ReclaimEvery: 30}}},
		{"rcu_batch400", bench.Workload{Scheme: "rcu", SMR: smr.Options{ReclaimEvery: 400}}},
	}
	ws := make([]bench.Workload, len(configs))
	labels := make([]string, len(configs))
	for i, tc := range configs {
		w := tc.w
		w.DS = "list"
		w.Threads = 8
		w.KeyRange = 1000
		w.UpdatePct = 100
		w.OpsPerThread = g.ops
		w.Seed = g.seed
		w.Check = g.check
		w.RecordTail = true
		ws[i] = w
		labels[i] = "tail " + tc.name
	}
	_, err = g.exec().RunMany(ws, labels, func(i int, res bench.Result) {
		name, t := configs[i].name, res.Tail
		series := []struct {
			name string
			h    *latency.Hist
		}{{"op", &t.Total}, {"pause", &t.Pause}}
		for _, sr := range series {
			h := sr.h
			total := h.Count()
			if total == 0 {
				continue // ca records no pauses
			}
			cum := uint64(0)
			for _, b := range h.Buckets() {
				cum += b.Count
				fmt.Fprintf(f, "%s,%s,%d,%.6f\n", name, sr.name, b.Hi, float64(cum)/float64(total))
			}
		}
		s := t.Total.Summary()
		fmt.Fprintf(g.stdout, "%-12s: p50 %5d  p99 %5d  p99.9 %5d  max %5d  | reclaim-tagged %d/%d ops, pause p99 %d\n",
			name, s.P50, s.P99, s.P999, s.Max,
			t.Reclaim.Count(), t.Total.Count(), t.Pause.Quantile(0.99))
	})
	return err
}

// timeline renders the pause-storm picture behind the Section I critique as
// a windowed sim-time series: the churn-drain scenario (100% updates with a
// think-time swing) for CA versus epoch-based reclamation at the paper's
// default batch and at a throughput-chasing large batch. Each CSV row is one
// fixed cycle window of one configuration — ops by kind, retries, and the
// cycles the window's ops spent inside reclamation pauses — so the batching
// schemes' periodic pause spikes line up against CA's flat zero-pause line
// on a shared simulated-time axis.
func (g generator) timeline() (err error) {
	f, err := cli.Create(filepath.Join(g.out, "fig_timeline.csv"))
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	fmt.Fprintln(f, "config,window_start,window_end,ops,insert,delete,read,retries,pause_cycles")
	sc, err := scenario.Preset(scenario.PresetChurnDrain)
	if err != nil {
		return err
	}
	configs := []struct {
		name   string
		scheme string
		smr    smr.Options
	}{
		{"ca", "ca", smr.Options{}},
		{"rcu_batch30", "rcu", smr.Options{ReclaimEvery: 30}},
		{"rcu_batch400", "rcu", smr.Options{ReclaimEvery: 400}},
	}
	sws := make([]bench.ScenarioWorkload, len(configs))
	labels := make([]string, len(configs))
	for i, tc := range configs {
		sws[i] = bench.ScenarioWorkload{
			DS: "list", Scheme: tc.scheme,
			Threads: 8, KeyRange: 1000,
			Seed: g.seed, Check: g.check, SMR: tc.smr,
			RecordTimeline: true,
			Scenario:       sc,
		}
		labels[i] = "timeline " + tc.name
	}
	_, err = g.exec().RunScenarios(sws, labels, func(i int, res bench.ScenarioResult) {
		tl := res.Timeline
		var peak, pauseSum uint64
		for _, row := range tl.Rows() {
			ops := row.Ops()
			if ops > peak {
				peak = ops
			}
			pauseSum += row.Pause
			fmt.Fprintf(f, "%s,%d,%d,%d,%d,%d,%d,%d,%d\n",
				configs[i].name, row.Start, row.End, ops, row.Insert, row.Delete, row.Read, row.Retries, row.Pause)
		}
		fmt.Fprintf(g.stdout, "%-12s: %3d windows of %d kcycles, peak %4d ops/window, pause cycles %d\n",
			configs[i].name, len(tl.Rows()), tl.Window/1000, peak, pauseSum)
	})
	return err
}

// tuning reproduces the paper's motivation: the baselines' throughput and
// footprint depend on the reclamation and epoch frequencies the programmer
// must pick, while CA has no parameters at all.
func (g generator) tuning() (err error) {
	f, err := cli.Create(filepath.Join(g.out, "ablation_tuning.csv"))
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	fmt.Fprintln(f, "scheme,reclaim_every,epoch_every,ops_per_mcyc,live_nodes,peak_live")
	type cfg struct{ reclaim, epoch int }
	grid := []cfg{{1, 10}, {10, 50}, {30, 150}, {100, 500}, {1000, 5000}}
	var ws []bench.Workload
	var labels []string
	for _, scheme := range []string{"rcu", "ibr", "hp", "ca"} {
		for _, tc := range grid {
			ws = append(ws, bench.Workload{
				DS: "list", Scheme: scheme,
				Threads: 16, KeyRange: 1000, UpdatePct: 100,
				OpsPerThread: g.ops, Seed: g.seed, Check: g.check,
				SMR: smr.Options{ReclaimEvery: tc.reclaim, EpochEvery: tc.epoch},
			})
			labels = append(labels, fmt.Sprintf("tuning %s r%d/e%d", scheme, tc.reclaim, tc.epoch))
			if scheme == "ca" {
				break // CA has no parameters; one point suffices
			}
		}
	}
	var row []string
	_, err = g.exec().RunMany(ws, labels, func(i int, res bench.Result) {
		w := ws[i]
		fmt.Fprintf(f, "%s,%d,%d,%.2f,%d,%d\n",
			w.Scheme, w.SMR.ReclaimEvery, w.SMR.EpochEvery, res.Throughput, res.Mem.NodeLive(), res.Mem.PeakLive)
		row = append(row, fmt.Sprintf("r%d/e%d: %.0f ops/Mcyc peak %d",
			w.SMR.ReclaimEvery, w.SMR.EpochEvery, res.Throughput, res.Mem.PeakLive))
		if i+1 == len(ws) || ws[i+1].Scheme != w.Scheme {
			fmt.Fprintf(g.stdout, "%-4s %s\n", w.Scheme, strings.Join(row, " | "))
			row = nil
		}
	})
	return err
}
