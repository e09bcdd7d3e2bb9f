package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"condaccess/internal/cache"
	"condaccess/internal/latency"
	"condaccess/internal/obs"
	"condaccess/internal/trace"
)

// SweepConfig describes a cross-product experiment: one data structure, a
// set of schemes, thread counts, and update rates — i.e. one paper figure
// panel per (update rate), one curve per scheme, one point per thread count.
type SweepConfig struct {
	DS       string
	Schemes  []string
	Threads  []int
	Updates  []int
	KeyRange uint64
	Ops      int // per thread
	Buckets  int // hash only
	Seed     uint64
	Check    bool
	Trials   int // >=1; throughput is averaged (paper: 3 trials)

	// Workers bounds the OS-thread fan-out of trial execution (Exec.Workers):
	// 1 (or 0) runs every trial on the calling goroutine, higher values on a
	// GOMAXPROCS-capped worker pool (pool.go). Either way the returned
	// points, the report order, and any error are identical.
	Workers int

	// Cache overrides the simulated cache geometry for every trial; the
	// zero value keeps the per-thread-count defaults.
	Cache cache.Params

	// Dist selects the key distribution (default uniform).
	Dist string
	// RecordLatency fills each point's Result.Tail and its summary,
	// Result.Latency; see Workload.RecordLatency.
	RecordLatency bool
	// RecordTail fills each point's Result.Tail alone; see
	// Workload.RecordTail.
	RecordTail bool
	// RecordTimeline fills each trial's Result.Timeline and each point's
	// merged SweepPoint.Timeline; see Workload.RecordTimeline.
	RecordTimeline bool
	// TimelineWindow overrides the timeline window size in cycles.
	TimelineWindow uint64

	// Store, when non-nil, caches complete trial results by content-addressed
	// spec (read-through/write-through, on every worker): re-running a sweep
	// against a warm store executes zero simulator trials and reproduces the
	// cold run's output byte for byte. Excluded from JSON: the handle is
	// runtime wiring, not part of the sweep's specification (manifests
	// record the spec).
	Store TrialStore `json:"-"`

	// Obs, when non-nil, receives the sweep's out-of-band instrumentation
	// (Exec.Obs): one declared point per cross-product cell, per-trial phase
	// spans committed by whichever worker ran the trial, and point
	// start/done marks in sweep order. Observation changes no point, no
	// report, and no error.
	Obs *obs.Rec `json:"-"`

	// Trace, when non-nil, receives the full event stream of every
	// simulated trial, one trace process track per trial, in sweep order.
	// It needs Workers <= 1 (Exec.Trace). Excluded from JSON like Store.
	Trace *trace.Sink `json:"-"`
}

// SweepPoint is one measured point of a sweep.
type SweepPoint struct {
	Scheme     string
	Threads    int
	UpdatePct  int
	Throughput float64 // mean over trials, ops per million cycles
	Retries    uint64  // from the last trial
	LiveNodes  uint64  // from the last trial
	Result     Result  // last trial's full result

	// Stats summarizes throughput over the point's trials (Stats.Mean ==
	// Throughput); the spread fields are zero when Trials is 1.
	Stats Summary

	// Tail summarizes per-op latency over every trial of the point merged
	// into one histogram (bucket counts add exactly, so this is the
	// distribution a single Trials-times-longer run would have recorded).
	// Zero unless RecordLatency or RecordTail is set.
	Tail latency.Summary

	// Timeline merges the point's per-trial timelines window by window
	// (trials share the measured cycle axis, so window i aggregates every
	// trial's window i). Nil unless RecordTimeline is set.
	Timeline *trace.Timeline
}

// pointSpec is one cell of the sweep cross product.
type pointSpec struct {
	Scheme    string
	Threads   int
	UpdatePct int
}

// expand flattens the cross product in the canonical sweep order — update
// rate outermost, then scheme, then thread count — the order points are
// declared, run and reported in.
func expand(cfg SweepConfig) []pointSpec {
	specs := make([]pointSpec, 0, len(cfg.Updates)*len(cfg.Schemes)*len(cfg.Threads))
	for _, u := range cfg.Updates {
		for _, scheme := range cfg.Schemes {
			for _, th := range cfg.Threads {
				specs = append(specs, pointSpec{Scheme: scheme, Threads: th, UpdatePct: u})
			}
		}
	}
	return specs
}

// trialWorkload builds one trial of one point. Sweep and ShardWorkloads
// construct trials here, so a trial's seed — and therefore its simulated
// result — cannot depend on which worker or process runs it.
func trialWorkload(cfg SweepConfig, s pointSpec, trial int) Workload {
	return Workload{
		DS: cfg.DS, Scheme: s.Scheme,
		Threads: s.Threads, KeyRange: cfg.KeyRange, UpdatePct: s.UpdatePct,
		OpsPerThread: cfg.Ops, Buckets: cfg.Buckets,
		Seed:           cfg.Seed + uint64(trial)*1000003,
		Check:          cfg.Check,
		Cache:          cfg.Cache,
		Dist:           cfg.Dist,
		RecordLatency:  cfg.RecordLatency,
		RecordTail:     cfg.RecordTail,
		RecordTimeline: cfg.RecordTimeline,
		TimelineWindow: cfg.TimelineWindow,
	}
}

// mergePoint folds a point's trial results (in trial order, so float
// summation order is fixed — Summarize sums the same way the historical
// mean did) into its SweepPoint.
func mergePoint(s pointSpec, trials []Result) SweepPoint {
	xs := make([]float64, len(trials))
	for i, r := range trials {
		xs[i] = r.Throughput
	}
	stats := Summarize(xs)
	// Merge the trials' total-latency histograms (in trial order; merging is
	// order-independent, see the latency package's associativity tests) so
	// the point's tail percentiles cover every recorded op, not just the
	// last trial's.
	var merged latency.Hist
	for _, r := range trials {
		if r.Tail != nil {
			merged.Merge(&r.Tail.Total)
		}
	}
	var tl *trace.Timeline
	for _, r := range trials {
		if r.Timeline != nil {
			if tl == nil {
				tl = &trace.Timeline{Window: r.Timeline.Window}
			}
			tl.Merge(r.Timeline)
		}
	}
	last := trials[len(trials)-1]
	return SweepPoint{
		Scheme: s.Scheme, Threads: s.Threads, UpdatePct: s.UpdatePct,
		Throughput: stats.Mean,
		Retries:    last.Retries,
		LiveNodes:  last.Mem.NodeLive(),
		Result:     last,
		Stats:      stats,
		Tail:       merged.Summary(),
		Timeline:   tl,
	}
}

// pointLabel renders a point's manifest/event label from its coordinates,
// matching pointError's spelling of the same cell.
func pointLabel(ds string, s pointSpec) string {
	return fmt.Sprintf("%s/%s t=%d u=%d", ds, s.Scheme, s.Threads, s.UpdatePct)
}

// pointError wraps a trial failure with its sweep coordinates.
func pointError(cfg SweepConfig, s pointSpec, err error) error {
	return fmt.Errorf("sweep %s/%s t=%d u=%d: %w", cfg.DS, s.Scheme, s.Threads, s.UpdatePct, err)
}

// validateSweep rejects malformed sweep configurations up front, before any
// trial runs: a sweep with no schemes, threads, or updates used to return
// silently empty output, and negative counts fell through to whatever the
// execution path made of them. Per-workload fields (structure, scheme,
// distribution names) are still validated per trial, where the error carries
// the sweep coordinates. Execution knobs (a Trace shared across workers)
// are the executor's to reject.
func validateSweep(cfg SweepConfig) error {
	if cfg.Trials < 1 {
		return fmt.Errorf("bench: sweep trials %d, need at least 1", cfg.Trials)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("bench: sweep workers %d must be non-negative", cfg.Workers)
	}
	if len(cfg.Schemes) == 0 {
		return fmt.Errorf("bench: sweep has no schemes")
	}
	if len(cfg.Threads) == 0 {
		return fmt.Errorf("bench: sweep has no thread counts")
	}
	if len(cfg.Updates) == 0 {
		return fmt.Errorf("bench: sweep has no update rates")
	}
	return nil
}

// Sweep runs the full cross product on the trial executor (Exec). report
// (may be nil) is called after each point, always in sweep order. A zero
// Trials means 1, like every other zero-valued default in the config; all
// other malformed values are rejected up front.
func Sweep(cfg SweepConfig, report func(SweepPoint)) ([]SweepPoint, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 1
	}
	if err := validateSweep(cfg); err != nil {
		return nil, err
	}
	specs := expand(cfg)
	labels := make([]string, len(specs))
	for i, s := range specs {
		labels[i] = pointLabel(cfg.DS, s)
	}
	var points []SweepPoint
	e := Exec{Workers: cfg.Workers, Store: cfg.Store, Obs: cfg.Obs, Trace: cfg.Trace}
	err := execute(e, labels, cfg.Trials,
		func(r *Runner, p, trial int) (Result, error) {
			res, err := r.Run(trialWorkload(cfg, specs[p], trial))
			if err != nil {
				return res, pointError(cfg, specs[p], err)
			}
			return res, nil
		},
		func(p int, trials []Result) {
			pt := mergePoint(specs[p], trials)
			points = append(points, pt)
			if report != nil {
				report(pt)
			}
		})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// multiTrial reports whether any point carries replication spread (Trials >
// 1), which is what switches the table and CSV renderers into their
// statistics layout.
func multiTrial(points []SweepPoint) bool {
	for _, p := range points {
		if p.Stats.Count > 1 {
			return true
		}
	}
	return false
}

// WriteCSV emits a sweep as long-form CSV. Single-trial sweeps keep the
// historical columns byte for byte; multi-trial sweeps append the
// replication statistics (trial count, stddev, 95% CI half-width, min, max,
// median of throughput).
func WriteCSV(w io.Writer, ds string, points []SweepPoint) error {
	stats := multiTrial(points)
	header := "ds,scheme,threads,update_pct,ops_per_mcyc,retries,live_nodes"
	if stats {
		header += ",trials,stddev,ci95,min,max,median"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.2f,%d,%d",
			ds, p.Scheme, p.Threads, p.UpdatePct, p.Throughput, p.Retries, p.LiveNodes); err != nil {
			return err
		}
		if stats {
			if _, err := fmt.Fprintf(w, ",%d,%.2f,%.2f,%.2f,%.2f,%.2f",
				p.Stats.Count, p.Stats.Stddev, p.Stats.CI95, p.Stats.Min, p.Stats.Max, p.Stats.Median); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// FormatTable renders one panel (a fixed update rate) as the paper's figure
// series: rows = schemes, columns = thread counts, cells = throughput. When
// the points carry replication spread (Trials > 1), each thread column gains
// stddev ("sd") and 95% CI half-width ("±95") columns; single-trial panels
// keep the historical layout byte for byte.
func FormatTable(points []SweepPoint, updatePct int) string {
	threadSet := map[int]bool{}
	schemeOrder := []string{}
	seen := map[string]bool{}
	cells := map[string]map[int]Summary{}
	stats := false
	for _, p := range points {
		if p.UpdatePct != updatePct {
			continue
		}
		threadSet[p.Threads] = true
		if !seen[p.Scheme] {
			seen[p.Scheme] = true
			schemeOrder = append(schemeOrder, p.Scheme)
			cells[p.Scheme] = map[int]Summary{}
		}
		s := p.Stats
		if s.Count == 0 {
			// Hand-built points (tests, external tools) may carry only a
			// throughput; render them under the single-trial layout.
			s = Summary{Count: 1, Mean: p.Throughput}
		}
		if s.Count > 1 {
			stats = true
		}
		cells[p.Scheme][p.Threads] = s
	}
	var threads []int
	for th := range threadSet {
		threads = append(threads, th)
	}
	sort.Ints(threads)

	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "scheme")
	for _, th := range threads {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("t=%d", th))
		if stats {
			fmt.Fprintf(&b, " %8s %8s", "sd", "±95")
		}
	}
	b.WriteByte('\n')
	for _, s := range schemeOrder {
		fmt.Fprintf(&b, "%-6s", s)
		for _, th := range threads {
			cell := cells[s][th]
			fmt.Fprintf(&b, " %9.1f", cell.Mean)
			if stats {
				fmt.Fprintf(&b, " %8.1f %8.1f", cell.Stddev, cell.CI95)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
