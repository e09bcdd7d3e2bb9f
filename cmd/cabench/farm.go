// Farm mode: multi-process sharded sweep execution.
//
// A sweep is a flat list of deterministic, independent trials, so it splits
// across processes by partitioning that list (bench.ShardWorkloads). A worker
// (`-shard I/N`) runs its jobs into a private store and renders nothing; the
// coordinator (`-farm N`) spawns N workers over private stores under
// <store>/shards, merges them into the main store (lab.Merge), and then runs
// the ordinary sweep path against the merged store — every trial warm, zero
// simulator work, and stdout byte-identical to the single-process run by
// construction, because it IS the single-process path.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"condaccess/internal/bench"
	"condaccess/internal/cli"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

// shardRun executes one shard of the sweep's job list into the store. No
// table is rendered — the store (plus the run manifest) is the output.
func shardRun(opt options, rec *obs.Rec, store bench.TrialStore, stdout io.Writer) error {
	ws, err := bench.ShardWorkloads(opt.cfg, opt.shardIdx, opt.shardOf)
	if err != nil {
		return err
	}
	if _, err := (bench.Exec{Workers: opt.cfg.Workers, Store: store, Obs: rec}).RunMany(ws, nil, nil); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "shard %d/%d: %d trials done\n", opt.shardIdx, opt.shardOf, len(ws))
	return nil
}

// shardDir places shard i's private store under the main store root. The
// store only claims segments/ and runs/, so shards/ rides along without
// confusing any reader.
func shardDir(storePath string, i, n int) string {
	return filepath.Join(storePath, "shards", fmt.Sprintf("%d-of-%d", i, n))
}

// farmRun coordinates a sharded sweep: spawn one worker process per shard,
// collect their manifests into per-shard rollups, merge the shard stores
// into the main store, and render by re-running the ordinary sweep path
// against it — fully warm, so the output is the sequential output.
func farmRun(opt options, rec *obs.Rec, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	n := opt.farm
	outs := make([]bytes.Buffer, n) // combined worker output, shown only on failure
	werrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cmd := exec.Command(exe, workerArgs(opt, i, n)...)
			cmd.Stdout = &outs[i]
			cmd.Stderr = &outs[i]
			werrs[i] = cmd.Run()
		}(i)
	}
	wg.Wait()
	rec.SetShards(shardRollups(opt, n, werrs))
	// First failed shard (by index) wins, echoing the sweep paths'
	// first-error semantics. Completed shards' stores stay on disk: a re-run
	// heals the gap warm.
	for i, werr := range werrs {
		if werr != nil {
			return fmt.Errorf("farm: shard %d/%d: %s", i, n, workerFailure(outs[i].Bytes(), werr))
		}
	}
	if err := mergeShards(opt, n, stderr); err != nil {
		return err
	}
	return cli.WithStore(opt.storePath, rec, stderr, func(st bench.TrialStore) error {
		return sweep(opt, rec, st, stdout, stderr)
	})
}

// mergeShards folds the N shard stores into the main store, through a
// handle of its own that is closed before the render opens the store: the
// merge's flushes stay off the render's store line.
func mergeShards(opt options, n int, stderr io.Writer) (err error) {
	dst, err := lab.Open(opt.storePath)
	if err != nil {
		return err
	}
	defer cli.Close(dst, &err)
	srcs := make([]*lab.Store, n)
	for i := range srcs {
		// oerr, not err: the deferred Close must see the function's named
		// return, not a loop-scoped shadow.
		src, oerr := lab.OpenExisting(shardDir(opt.storePath, i, n))
		if oerr != nil {
			return oerr
		}
		defer cli.Close(src, &err)
		srcs[i] = src
	}
	stats, err := lab.Merge(dst, srcs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "farm: merged %d shards, %d entries added (%d already present)\n",
		n, stats.Added, stats.Skipped)
	return nil
}

// shardRollups distills each worker's manifest into the coordinator
// manifest's per-shard summary. A worker that died before writing one (or
// wrote an unreadable one) still gets a rollup carrying its process error.
func shardRollups(opt options, n int, werrs []error) []obs.ShardRollup {
	rollups := make([]obs.ShardRollup, n)
	for i := range rollups {
		r := obs.ShardRollup{Shard: i}
		if werrs[i] != nil {
			r.Error = werrs[i].Error()
		}
		m, err := obs.ReadManifest(filepath.Join(shardDir(opt.storePath, i, n), "manifest.json"))
		if err == nil {
			r.RunID = m.RunID
			r.Trials = m.TrialsDone
			r.Warm = m.WarmHits
			r.WallNanos = m.WallNanos
			r.SpanNanos = m.SpanNanos
			if m.Error != "" {
				r.Error = m.Error
			}
		}
		rollups[i] = r
	}
	return rollups
}

// workerArgs rebuilds shard i's command line from the parsed sweep config —
// every field that reaches the trial Workload (and therefore the content
// key) is forwarded exactly, so shard entries are the entries the warm
// coordinator re-run looks up.
func workerArgs(opt options, i, n int) []string {
	cfg := opt.cfg
	dir := shardDir(opt.storePath, i, n)
	args := []string{
		"-ds", cfg.DS,
		"-schemes", strings.Join(cfg.Schemes, ","),
		"-threads", joinInts(cfg.Threads),
		"-updates", joinInts(cfg.Updates),
		"-ops", strconv.Itoa(cfg.Ops),
		"-range", strconv.FormatUint(cfg.KeyRange, 10),
		"-buckets", strconv.Itoa(cfg.Buckets),
		"-seed", strconv.FormatUint(cfg.Seed, 10),
		"-trials", strconv.Itoa(cfg.Trials),
		"-workers", strconv.Itoa(cfg.Workers),
		"-dist", cfg.Dist,
		"-shard", fmt.Sprintf("%d/%d", i, n),
		"-store", dir,
		"-manifest", filepath.Join(dir, "manifest.json"),
	}
	if cfg.Check {
		args = append(args, "-check")
	}
	if cfg.RecordLatency {
		args = append(args, "-lat")
	}
	if cfg.RecordTail {
		args = append(args, "-tail")
	}
	if cfg.RecordTimeline {
		args = append(args, "-timeline")
	}
	if cfg.TimelineWindow != 0 {
		args = append(args, "-timeline-window", strconv.FormatUint(cfg.TimelineWindow, 10))
	}
	return args
}

// workerFailure condenses a failed worker's captured output into the
// coordinator's one-line error: the worker's own error line when it printed
// one, the process error otherwise.
func workerFailure(out []byte, werr error) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if line := strings.TrimSpace(lines[i]); line != "" {
			return fmt.Sprintf("%s (%v)", line, werr)
		}
	}
	return werr.Error()
}

// joinInts renders ints as the comma-separated form the flag parser reads.
func joinInts(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}
