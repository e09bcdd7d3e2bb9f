// Parallel sweep execution. A sweep is a cross product of fully independent,
// fully deterministic simulated trials (each bench.Run builds its own
// sim.Machine, heap, and caches, and the simulator's schedule depends only on
// seeds), so trials can fan out across real OS threads freely. A trial's
// simulation runs entirely on the worker goroutine that claimed it — the
// sim core is channel-free and spawns no goroutines of its own — so the
// pool's goroutine count is exactly the worker count, independent of the
// simulated thread count, and a worker's Runner (with its reused machines)
// is only ever touched by that one goroutine. The scheduler here expands a
// SweepConfig into a flat job list — one job per (point, trial) — hands jobs
// to a GOMAXPROCS-bounded worker pool, and merges results back in sweep
// order, so the returned points, the report callback sequence, and any error
// are byte-identical to the sequential path.

package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"condaccess/internal/obs"
)

// poolWorkers clamps a requested worker count to [1, GOMAXPROCS] and to the
// number of jobs available.
func poolWorkers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = 1
	}
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// startPool launches workers goroutines that claim job indices [0, n) from a
// shared counter and run them. run receives the worker's index alongside the
// job's, so each worker can keep private reusable state (its Runner). If
// abort is non-nil, workers stop claiming new jobs once it is set. The
// returned function blocks until all workers exit.
func startPool(n, workers int, abort *atomic.Bool, run func(worker, i int)) (wait func()) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (abort != nil && abort.Load()) {
					return
				}
				run(worker, i)
			}
		}(w)
	}
	return wg.Wait
}

// sweepParallel executes an expanded sweep on a worker pool. Results land in
// per-point slots indexed by (point, trial); the main goroutine walks points
// in sweep order, blocking on each point's completion, so merged points and
// progress reports stream in exactly the sequential order while later points
// are still being measured. On the first failed point (trials checked in
// trial order, matching the sequential loop's first-error semantics) the pool
// is aborted and the same wrapped error is returned.
func sweepParallel(cfg SweepConfig, specs []pointSpec, base int, report func(SweepPoint)) ([]SweepPoint, error) {
	type job struct{ point, trial int }
	jobs := make([]job, 0, len(specs)*cfg.Trials)
	for p := range specs {
		for t := 0; t < cfg.Trials; t++ {
			jobs = append(jobs, job{p, t})
		}
	}
	results := make([][]Result, len(specs))
	errs := make([][]error, len(specs))
	remaining := make([]atomic.Int32, len(specs))
	done := make([]chan struct{}, len(specs))
	for i := range specs {
		results[i] = make([]Result, cfg.Trials)
		errs[i] = make([]error, cfg.Trials)
		remaining[i].Store(int32(cfg.Trials))
		done[i] = make(chan struct{})
	}

	var abort atomic.Bool
	workers := poolWorkers(cfg.Workers, len(jobs))
	runners := make([]Runner, workers) // one reusable machine set per worker
	for i := range runners {
		runners[i].Store = cfg.Store // shared store; implementations are concurrency-safe
		runners[i].Obs = cfg.Obs.Worker(i)
	}
	wait := startPool(len(jobs), workers, &abort, func(worker, i int) {
		j := jobs[i]
		results[j.point][j.trial], errs[j.point][j.trial] = runners[worker].Run(trialWorkload(cfg, specs[j.point], j.trial))
		// Trial commits happen here, on the worker, as trials finish (any
		// order); the sequential point_start/point_done marks below come
		// from the in-order merge loop only.
		if errs[j.point][j.trial] != nil {
			runners[worker].Obs.Abandon()
		} else {
			runners[worker].Obs.Commit(base + j.point)
		}
		if remaining[j.point].Add(-1) == 0 {
			close(done[j.point])
		}
	})
	defer wait()

	var points []SweepPoint
	for i, s := range specs {
		cfg.Obs.PointStart(base + i)
		<-done[i]
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := errs[i][trial]; err != nil {
				abort.Store(true)
				return nil, pointError(cfg, s, err)
			}
		}
		p := mergePoint(s, results[i])
		points = append(points, p)
		cfg.Obs.PointDone(base + i)
		if report != nil {
			report(p)
		}
	}
	return points, nil
}

// RunMany executes independent workloads on a worker pool of at most workers
// OS threads (clamped to GOMAXPROCS; <=1 runs sequentially) and returns their
// results in input order. On failure it stops claiming further workloads and
// returns the earliest-indexed error among those that ran. store (may be
// nil) caches trial results across invocations, like SweepConfig.Store.
func RunMany(ws []Workload, workers int, store TrialStore) ([]Result, error) {
	return RunManyObserved(ws, workers, store, nil)
}

// RunManyObserved is RunMany with out-of-band instrumentation: each
// workload is declared as one single-trial point on rec (nil for none) and
// its spans are committed by whichever worker ran it; the point_start and
// point_done marks are emitted in input order after the pool drains, and a
// failed point stays open, as in sweepParallel.
func RunManyObserved(ws []Workload, workers int, store TrialStore, rec *obs.Rec) ([]Result, error) {
	base := 0
	if rec != nil {
		labels := make([]string, len(ws))
		for i, w := range ws {
			labels[i] = pointLabel(w.DS, pointSpec{Scheme: w.Scheme, Threads: w.Threads, UpdatePct: w.UpdatePct})
		}
		base = rec.AddPoints(labels, 1)
	}
	results := make([]Result, len(ws))
	errs := make([]error, len(ws))
	var abort atomic.Bool
	nw := poolWorkers(workers, len(ws))
	runners := make([]Runner, nw)
	for i := range runners {
		runners[i].Store = store
		runners[i].Obs = rec.Worker(i)
	}
	startPool(len(ws), nw, &abort, func(worker, i int) {
		results[i], errs[i] = runners[worker].Run(ws[i])
		if errs[i] != nil {
			runners[worker].Obs.Abandon()
			abort.Store(true)
		} else {
			runners[worker].Obs.Commit(base + i)
		}
	})()
	for i, err := range errs {
		rec.PointStart(base + i)
		if err != nil {
			return nil, err
		}
		rec.PointDone(base + i)
	}
	return results, nil
}
