// calab manages experiment-lab result stores: the persistent,
// content-addressed trial caches that cabench/cascenario/figures/camem fill
// through their -store flag.
//
//	calab inspect -store DIR            # engine tags, entry counts, per-cell replication statistics
//	calab diff -a DIRA -b DIRB          # cross-run A/B: speedup per cell, CI-overlap significance
//	calab gc -store DIR [-all]          # drop foreign-engine and corrupt entries (or everything)
//	calab export -store DIR [-csv F]    # long-form CSV of every trial entry
//	calab verify -store DIR             # integrity: content addresses and payload fingerprints
//	calab pack -store DIR               # compact the segments: one record per entry, no crash residue
//	calab merge SRC... DST              # fold shard stores into DST (per-key dedup, one engine tag)
//	calab runs -store DIR               # list the run manifests under DIR/runs
//	calab runs -run ID -store DIR       # inspect one run's manifest (or -run PATH)
//	calab runs -a X -b Y [-store DIR]   # A/B two runs' timing rollups
//
// Entries are keyed by the engine tag (a digest of the stored result schema
// and the golden files pinning the engine's output), so results from
// different engine versions never mix: inspect reports foreign-tag entries,
// gc collects them, and diff is the tool that deliberately compares across
// them.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"condaccess/internal/cli"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

// options is the parsed command line.
type options struct {
	cmd     string
	store   string // inspect, gc, export, verify; optional for runs; merge destination
	srcs    []string
	a, b    string // diff, runs
	all     bool   // gc
	csvPath string // export; empty writes to stdout
	runID   string // runs
	prof    cli.Profiler
}

const usageText = "usage: calab <inspect|diff|gc|export|verify|pack|merge|runs> [flags]\n"

// parseArgs parses the subcommand and its flag set. Split out of main for
// testability.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return options{}, cli.Reported{Err: errors.New("missing subcommand")}
	}
	opt := options{cmd: args[0]}
	fs := cli.NewFlagSet("calab "+opt.cmd, stderr)
	storeFlag := func() *string { return fs.String("store", "", "result store directory (required)") }
	var store, a, b, csvPath, runID *string
	var all *bool
	switch opt.cmd {
	case "inspect", "verify", "pack":
		store = storeFlag()
	case "gc":
		store = storeFlag()
		all = fs.Bool("all", false, "remove every entry, not just foreign-engine ones")
	case "export":
		store = storeFlag()
		csvPath = fs.String("csv", "", "write CSV here instead of stdout")
	case "merge":
		// Positional: calab merge SRC... DST. Validated after fs.Parse.
	case "diff":
		a = fs.String("a", "", "baseline store directory (required)")
		b = fs.String("b", "", "candidate store directory (required)")
	case "runs":
		store = fs.String("store", "", "store directory whose runs/ manifests to list (or resolve ids in)")
		runID = fs.String("run", "", "inspect one run: a manifest path, or a run id with -store")
		a = fs.String("a", "", "A/B baseline: manifest path or run id (resolved in -store)")
		b = fs.String("b", "", "A/B candidate: manifest path or run id (resolved in -store)")
	case "-version", "--version", "version":
		return options{cmd: "version"}, nil
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stderr, usageText)
		return options{}, cli.Reported{Err: flag.ErrHelp}
	default:
		fmt.Fprint(stderr, usageText)
		return options{}, cli.Reported{Err: fmt.Errorf("unknown subcommand %q", opt.cmd)}
	}
	opt.prof.Register(fs)
	if err := cli.Parse(fs, args[1:]); err != nil {
		return options{}, err
	}
	if opt.cmd == "merge" {
		args := fs.Args()
		if len(args) < 2 {
			return options{}, errors.New("merge: need at least one SRC and a DST (calab merge SRC... DST)")
		}
		opt.srcs, opt.store = args[:len(args)-1], args[len(args)-1]
	}
	if store != nil {
		if *store == "" && opt.cmd != "runs" {
			return options{}, fmt.Errorf("%s: -store is required", opt.cmd)
		}
		opt.store = *store
	}
	if a != nil {
		if opt.cmd == "runs" {
			if (*a == "") != (*b == "") {
				return options{}, errors.New("runs: -a and -b go together")
			}
		} else if *a == "" || *b == "" {
			return options{}, errors.New("diff: both -a and -b are required")
		}
		opt.a, opt.b = *a, *b
	}
	if runID != nil {
		opt.runID = *runID
		if opt.store == "" && opt.runID == "" && opt.a == "" {
			return options{}, errors.New("runs: one of -store, -run, or -a/-b is required")
		}
	}
	if all != nil {
		opt.all = *all
	}
	if csvPath != nil {
		opt.csvPath = *csvPath
	}
	return opt, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced, on the exit contract
// every command shares (internal/cli): the version subcommand is -version,
// and the profiling flags are the session's, so a profile-teardown failure
// only surfaces when the command itself succeeded.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	return cli.Run("calab", args, stdout, stderr, err, cli.Spec{
		Flags: cli.Flags{Version: opt.cmd == "version", Prof: opt.prof},
		Body:  func(*obs.Rec) error { return dispatch(opt, stdout) },
	})
}

// dispatch runs a parsed command, writing its report to out.
func dispatch(opt options, out io.Writer) error {
	switch opt.cmd {
	case "runs":
		return runs(opt, out)
	case "inspect":
		return inspect(opt.store, out)
	case "verify":
		return verify(opt.store, out)
	case "gc":
		return gc(opt.store, opt.all, out)
	case "export":
		return export(opt.store, opt.csvPath, out)
	case "diff":
		return diff(opt.a, opt.b, out)
	case "pack":
		return pack(opt.store, out)
	case "merge":
		return merge(opt.srcs, opt.store, out)
	}
	return fmt.Errorf("unknown subcommand %q", opt.cmd)
}

func inspect(dir string, out io.Writer) (err error) {
	st, err := lab.OpenExisting(dir)
	if err != nil {
		return err
	}
	defer cli.Close(st, &err)
	// Spec entries suffice: counting, tag partitioning, and cell statistics
	// never need more of the result payload than the throughput.
	entries, err := st.SpecEntries()
	if err != nil {
		return err
	}
	var trials, scenarios, foreign int
	var current []lab.SpecEntry
	for _, e := range entries {
		if e.Tag != st.Tag() {
			foreign++
			continue
		}
		current = append(current, e)
		if e.Kind == lab.KindTrial {
			trials++
		} else {
			scenarios++
		}
	}
	fmt.Fprintf(out, "store %s (engine %s): %d trial + %d scenario entries",
		dir, st.Tag(), trials, scenarios)
	if foreign > 0 {
		fmt.Fprintf(out, ", %d foreign-engine (calab gc collects them)", foreign)
	}
	fmt.Fprintln(out)
	if len(current) > 0 {
		fmt.Fprint(out, lab.FormatCells(lab.Cells(current)))
	}
	return nil
}

func verify(dir string, out io.Writer) (err error) {
	st, err := lab.OpenExisting(dir)
	if err != nil {
		return err
	}
	defer cli.Close(st, &err)
	sound, problems, err := st.Verify()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d sound entries, %d problems\n", sound, len(problems))
	for _, p := range problems {
		fmt.Fprintf(out, "  %s: %s\n", p.Path, p.Reason)
	}
	if len(problems) > 0 {
		// Segments are append-only: a re-run heals the lookups but leaves
		// the bad records behind their replacements until a rewrite.
		return fmt.Errorf("%d problems (re-run the experiments to heal their lookups, then calab pack or calab gc to drop the bad records)", len(problems))
	}
	return nil
}

func gc(dir string, all bool, out io.Writer) (err error) {
	st, err := lab.OpenExisting(dir)
	if err != nil {
		return err
	}
	defer cli.Close(st, &err)
	removed, kept, err := st.GC(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "removed %d entries, kept %d\n", removed, kept)
	return nil
}

// pack compacts the store's segments into one, dropping superseded
// records and crash residue.
func pack(dir string, out io.Writer) (err error) {
	st, err := lab.OpenExisting(dir)
	if err != nil {
		return err
	}
	defer cli.Close(st, &err)
	packed, err := st.Pack()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "store now holds %d packed entries\n", packed)
	return nil
}

// merge folds each SRC store into DST: per-key dedup (content-addressed
// entries cannot conflict) and engine-tag mismatch refusal. Sources must
// already exist; the destination is created on demand, so merging shard
// stores into a fresh main store just works.
func merge(srcDirs []string, dstDir string, out io.Writer) (err error) {
	dst, err := lab.Open(dstDir)
	if err != nil {
		return err
	}
	defer cli.Close(dst, &err)
	var srcs []*lab.Store
	for _, dir := range srcDirs {
		// oerr, not err: the deferred Close must see the function's named
		// return, not a loop-scoped shadow.
		src, oerr := lab.OpenExisting(dir)
		if oerr != nil {
			return oerr
		}
		defer cli.Close(src, &err)
		srcs = append(srcs, src)
	}
	stats, err := lab.Merge(dst, srcs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "merged %d entries from %d sources into %s (%d already present)\n",
		stats.Added, len(srcDirs), dstDir, stats.Skipped)
	return nil
}

func export(dir, csvPath string, out io.Writer) (err error) {
	st, err := lab.OpenExisting(dir)
	if err != nil {
		return err
	}
	defer cli.Close(st, &err)
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	w := out
	if csvPath != "" {
		f, ferr := cli.Create(csvPath)
		if ferr != nil {
			return ferr
		}
		defer cli.Close(f, &err)
		w = f
	}
	// encoding/csv quotes as needed: scenario names come from user JSON and
	// may contain commas.
	cw := csv.NewWriter(w)
	if err := cw.Write(strings.Split("kind,ds,scheme,threads,update_pct,scenario,key_range,ops,dist,seed,ops_per_mcyc,retries,live_nodes,tag,key", ",")); err != nil {
		return err
	}
	for _, e := range entries {
		var rec []string
		if e.Kind == lab.KindTrial {
			wl, res := e.Workload, e.Result
			rec = []string{
				e.Kind, wl.DS, wl.Scheme, itoa(wl.Threads), itoa(wl.UpdatePct), "",
				utoa(wl.KeyRange), itoa(wl.OpsPerThread), wl.Dist, utoa(wl.Seed),
				fmt.Sprintf("%.2f", res.Throughput), utoa(res.Retries), utoa(res.Mem.NodeLive()), e.Tag, e.Key,
			}
		} else {
			sw, res := e.Scenario, e.ScenarioResult
			rec = []string{
				e.Kind, sw.DS, sw.Scheme, itoa(sw.Threads), "", sw.Scenario.Name,
				utoa(sw.KeyRange), "", sw.Dist, utoa(sw.Seed),
				fmt.Sprintf("%.2f", res.Throughput), utoa(res.Retries), utoa(res.Mem.NodeLive()), e.Tag, e.Key,
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func itoa(n int) string    { return strconv.Itoa(n) }
func utoa(n uint64) string { return strconv.FormatUint(n, 10) }

func diff(dirA, dirB string, out io.Writer) error {
	cellsOf := func(dir string) (cells []lab.Cell, err error) {
		st, err := lab.OpenExisting(dir)
		if err != nil {
			return nil, err
		}
		defer cli.Close(st, &err)
		return lab.SnapshotCells(st)
	}
	a, err := cellsOf(dirA)
	if err != nil {
		return err
	}
	b, err := cellsOf(dirB)
	if err != nil {
		return err
	}
	rows, onlyA, onlyB := lab.Diff(a, b)
	if len(rows) == 0 && len(onlyA) == 0 && len(onlyB) == 0 {
		return errors.New("both stores are empty")
	}
	fmt.Fprintf(out, "A = %s, B = %s; * marks disjoint 95%% CIs (significant), ~ within noise\n", dirA, dirB)
	fmt.Fprint(out, lab.FormatDiff(rows, onlyA, onlyB))
	var significant int
	for _, r := range rows {
		if r.Significant {
			significant++
		}
	}
	fmt.Fprintf(out, "%d aligned cells, %d significant differences\n", len(rows), significant)
	return nil
}
