// castat runs one workload per scheme and prints the microarchitectural
// detail behind the paper's Section V narrative: cache hit/miss rates,
// invalidations, remote forwards, Conditional Access activity (creads,
// failures, revocations), reclaimer behaviour (retired/freed/backlog), and
// per-operation latency percentiles.
//
// Example:
//
//	castat -ds list -threads 16 -updates 100
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
)

// options is the parsed command line: the workload template (Scheme is
// filled per run) and the scheme list to iterate.
type options struct {
	w       bench.Workload
	schemes []string
	flags   cli.Flags
}

// parseArgs parses the flag set into a workload template plus scheme list.
// Split out of main for testability (same pattern as cmd/cabench).
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := cli.NewFlagSet("castat", stderr)
	var (
		ds      = fs.String("ds", "list", "data structure: "+strings.Join(bench.Structures(), ", "))
		schemes = fs.String("schemes", "none,ca,ibr,rcu,qsbr,hp,he", "comma-separated schemes")
		threads = fs.Int("threads", 16, "threads")
		updates = fs.Int("updates", 100, "update percentage")
		ops     = fs.Int("ops", 2000, "operations per thread")
		keys    = fs.Uint64("range", 0, "key range (default: paper's per-structure value)")
		dist    = fs.String("dist", "uniform", "key distribution: uniform or zipf")
		seed    = fs.Uint64("seed", 1, "RNG seed")
	)
	var fl cli.Flags
	fl.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	schemeList := cli.SplitList(*schemes)
	if len(schemeList) == 0 {
		return options{}, errors.New("-schemes: no schemes given")
	}
	return options{
		w: bench.Workload{
			DS:      *ds,
			Threads: *threads, KeyRange: cli.KeyRange(*ds, *keys), UpdatePct: *updates,
			OpsPerThread: *ops, Seed: *seed, Dist: *dist,
			RecordLatency: true,
		},
		schemes: schemeList,
		flags:   fl,
	}, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced, on the exit contract
// every command shares (internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	return cli.Run("castat", args, stdout, stderr, err, cli.Spec{
		Flags:  opt.flags,
		Config: opt.w,
		Body:   func(rec *obs.Rec) error { return stat(opt, rec, stdout) },
	})
}

// stat runs one workload per scheme and prints the detail blocks.
// Observability (rec may be nil) is out-of-band.
func stat(opt options, rec *obs.Rec, stdout io.Writer) error {
	w := opt.w
	fmt.Fprintf(stdout, "%s, %d threads, %d%% updates, %d keys (%s), %d ops/thread\n\n",
		w.DS, w.Threads, w.UpdatePct, w.KeyRange, w.Dist, w.OpsPerThread)
	ws := make([]bench.Workload, len(opt.schemes))
	for i, scheme := range opt.schemes {
		ws[i] = w
		ws[i].Scheme = scheme
	}
	_, err := bench.Exec{Workers: 1, Obs: rec}.RunMany(ws, nil, func(i int, res bench.Result) {
		scheme := opt.schemes[i]
		c := res.Cache
		accesses := c.L1Hits + c.L1Misses
		fmt.Fprintf(stdout, "== %s: %.1f ops/Mcyc ==\n", scheme, res.Throughput)
		fmt.Fprintf(stdout, "  cache:   %d accesses, L1 hit %.2f%%, L2 miss %d, remote-fwd %d, invalidations %d, upgrades %d, L1 evictions %d\n",
			accesses, 100*float64(c.L1Hits)/float64(max(accesses, 1)),
			c.L2Misses, c.RemoteFwds, c.Invalidations, c.Upgrades, c.L1Evictions)
		if scheme == "ca" {
			a := res.CA
			fmt.Fprintf(stdout, "  ca:      %d creads (%d failed), %d cwrites (%d failed, %d untagged), %d revocations, max tagset %d\n",
				a.CReads, a.CReadFails, a.CWrites, a.CWriteFails, a.Untagged, a.Revocations, a.MaxTagSet)
		} else if scheme != "none" {
			s := res.SMR
			fmt.Fprintf(stdout, "  smr:     retired %d, freed %d, scans %d, max backlog %d\n",
				s.Retired, s.Freed, s.Scans, s.MaxBacklog)
		}
		// The allocator reuses a freed line before it carves a new one, so
		// the heap's high-water mark is the peak live set plus the
		// infrastructure lines.
		fmt.Fprintf(stdout, "  memory:  live %d nodes, peak %d, heap high-water %d lines\n",
			res.Mem.NodeLive(), res.Mem.PeakLive, res.Mem.PeakLive+res.Mem.InfraLines)
		l := res.Latency
		fmt.Fprintf(stdout, "  latency: p50 %d, p90 %d, p99 %d, p99.9 %d, max %d cycles (retries %d)\n\n",
			l.P50, l.P90, l.P99, l.P999, l.Max, res.Retries)
	})
	return err
}
