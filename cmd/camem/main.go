// camem regenerates the paper's Figure 3: the number of nodes allocated but
// not yet freed, sampled as a lazy list runs a 100% update workload. The
// paper's configuration is the default: key range 1000 (list size ~500), 16
// threads, 5000 operations per thread, sampled every 1000 operations.
//
// Expected shape: ca stays flat at the live list size (~500); hp/he/ibr
// plateau at their reclamation thresholds; rcu/qsbr ride higher; none grows
// without bound.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"condaccess/internal/bench"
	"condaccess/internal/cli"
	"condaccess/internal/obs"
)

// options is the parsed command line: one Workload per scheme plus the
// output and execution knobs.
type options struct {
	ws        []bench.Workload
	schemes   []string
	csvPath   string
	storePath string
	workers   int
	flags     cli.Flags
}

// parseArgs parses the flag set into per-scheme workloads. Split out of
// main for testability.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := cli.NewFlagSet("camem", stderr)
	var (
		schemes = fs.String("schemes", "none,ca,ibr,rcu,qsbr,hp,he", "comma-separated schemes")
		threads = fs.Int("threads", 16, "threads (paper: 16)")
		keys    = fs.Uint64("range", 1000, "key range (paper: 1000)")
		ops     = fs.Int("ops", 5000, "operations per thread (paper: 5000)")
		every   = fs.Int("sample", 1000, "sample footprint every N total ops (paper: 1000)")
		seed    = fs.Uint64("seed", 1, "RNG seed")
		check   = fs.Bool("check", false, "enable safety assertions")
		csvPath = fs.String("csv", "", "also write CSV to this file")
		store   = fs.String("store", "", "content-addressed result store directory (warm schemes skip simulation)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel scheme workers (1: sequential)")
	)
	var fl cli.Flags
	fl.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	if *every < 1 {
		return options{}, fmt.Errorf("-sample %d: want at least 1", *every)
	}
	names := cli.SplitList(*schemes)
	if len(names) == 0 {
		return options{}, errors.New("-schemes: empty list")
	}
	ws := make([]bench.Workload, len(names))
	for i, scheme := range names {
		ws[i] = bench.Workload{
			DS: "list", Scheme: scheme,
			Threads: *threads, KeyRange: *keys, UpdatePct: 100,
			OpsPerThread: *ops, Seed: *seed, Check: *check,
			FootprintEvery: *every,
		}
	}
	return options{
		ws: ws, schemes: names,
		csvPath: *csvPath, storePath: *store, workers: *workers,
		flags: fl,
	}, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced, on the exit contract
// every command shares (internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	return cli.Run("camem", args, stdout, stderr, err, cli.Spec{
		Flags:  opt.flags,
		Config: opt.ws, StoreDir: opt.storePath,
		Body: func(rec *obs.Rec) error {
			return cli.WithStore(opt.storePath, rec, stderr, func(st bench.TrialStore) error {
				return footprint(opt, rec, st, stdout)
			})
		},
	})
}

// footprint runs the per-scheme workloads and renders the Figure 3 table
// (and CSV). Observability (rec may be nil) is out-of-band; store is nil
// when no -store was given.
func footprint(opt options, rec *obs.Rec, store bench.TrialStore, stdout io.Writer) (err error) {
	results, err := bench.Exec{Workers: opt.workers, Store: store, Obs: rec}.RunMany(opt.ws, nil, nil)
	if err != nil {
		return err
	}
	names := opt.schemes
	series := map[string]map[int]uint64{}
	allOps := map[int]bool{}
	for i, scheme := range names {
		series[scheme] = map[int]uint64{}
		for _, s := range results[i].Footprint {
			series[scheme][s.AfterOps] = s.Live
			allOps[s.AfterOps] = true
		}
	}

	var xs []int
	for x := range allOps {
		xs = append(xs, x)
	}
	sort.Ints(xs)

	var out strings.Builder
	fmt.Fprintf(&out, "%-10s", "ops")
	for _, n := range names {
		fmt.Fprintf(&out, " %8s", n)
	}
	out.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&out, "%-10d", x)
		for _, n := range names {
			fmt.Fprintf(&out, " %8d", series[n][x])
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(stdout, "Figure 3: allocated-but-not-freed nodes, lazy list, %d threads, 100%% updates\n", opt.ws[0].Threads)
	fmt.Fprint(stdout, out.String())

	if opt.csvPath == "" {
		return nil
	}
	f, err := cli.Create(opt.csvPath)
	if err != nil {
		return err
	}
	defer cli.Close(f, &err)
	fmt.Fprintln(f, "ops,"+strings.Join(names, ","))
	for _, x := range xs {
		row := make([]string, 0, len(names)+1)
		row = append(row, fmt.Sprint(x))
		for _, n := range names {
			row = append(row, fmt.Sprint(series[n][x]))
		}
		fmt.Fprintln(f, strings.Join(row, ","))
	}
	return nil
}
