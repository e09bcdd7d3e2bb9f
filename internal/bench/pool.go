// Trial execution. Every experiment here is a list of points, each a fixed
// number of fully independent, fully deterministic trials: each bench.Run
// builds or resets its own sim.Machine, heap and caches, and the
// simulator's schedule depends only on seeds. So trials can fan out across
// real OS threads freely. A trial's simulation runs entirely on the worker
// goroutine that claimed it (the sim core is channel-free and spawns no
// goroutines of its own), so the goroutine count is the worker count,
// independent of the simulated thread count, and a worker's Runner, with
// its reused machines, is only ever touched by that one goroutine.

package bench

import (
	"fmt"
	"runtime"
	"sync"

	"condaccess/internal/obs"
	"condaccess/internal/trace"
)

// Exec is the trial executor that every command's trials run on, sweeps
// included. A batch is a list of points, each of the same number of trials,
// flattened into job order: point by point, trial by trial. Workers claim
// jobs in that order, each on a Runner of its own, and finished points are
// reported in point order. Results, reports and the returned error are
// therefore the same for every worker count.
type Exec struct {
	// Workers bounds the OS-thread fan-out; it is clamped to GOMAXPROCS and
	// to the job count. At 1 (or 0) the calling goroutine is the only
	// worker.
	Workers int

	// Store, when non-nil, is every worker's read-through/write-through
	// trial cache (Runner.Store); implementations are safe for concurrent
	// use.
	Store TrialStore

	// Obs, when non-nil, receives the batch's points, each trial's phase
	// spans (committed by whichever worker ran it) and the point_start and
	// point_done events, in point order from the calling goroutine only.
	// Observation changes no result, no report and no error.
	Obs *obs.Rec

	// Trace, when non-nil, receives every simulated trial's event stream,
	// one track per trial in job order. It needs Workers <= 1: a sink shared
	// across workers would record nondeterministically, so the executor
	// rejects the combination before any trial runs.
	Trace *trace.Sink
}

// RunMany runs one trial per workload and returns the results in input
// order. labels name the points in the run recorder, one per workload; nil
// labels each by its cell, as Sweep does. ready (may be nil) receives each
// result in input order once it and every earlier one are done.
func (e Exec) RunMany(ws []Workload, labels []string, ready func(i int, res Result)) ([]Result, error) {
	if labels == nil {
		labels = make([]string, len(ws))
		for i, w := range ws {
			labels[i] = pointLabel(w.DS, pointSpec{Scheme: w.Scheme, Threads: w.Threads, UpdatePct: w.UpdatePct})
		}
	}
	return runEach(e, ws, labels, (*Runner).Run, ready)
}

// RunScenarios is RunMany for scenario trials. nil labels name each point
// "scenario ds/scheme t=N".
func (e Exec) RunScenarios(sws []ScenarioWorkload, labels []string, ready func(i int, res ScenarioResult)) ([]ScenarioResult, error) {
	if labels == nil {
		labels = make([]string, len(sws))
		for i, sw := range sws {
			labels[i] = fmt.Sprintf("%s %s/%s t=%d", sw.Scenario.Name, sw.DS, sw.Scheme, sw.Threads)
		}
	}
	return runEach(e, sws, labels, (*Runner).RunScenario, ready)
}

// runEach runs one single-trial point per input.
func runEach[W, R any](e Exec, ws []W, labels []string, run func(*Runner, W) (R, error), ready func(int, R)) ([]R, error) {
	if len(labels) != len(ws) {
		return nil, fmt.Errorf("bench: %d labels for %d trials", len(labels), len(ws))
	}
	out := make([]R, len(ws))
	err := execute(e, labels, 1,
		func(r *Runner, i, _ int) (R, error) { return run(r, ws[i]) },
		func(i int, trials []R) {
			out[i] = trials[0]
			if ready != nil {
				ready(i, out[i])
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

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

// execute runs len(labels) points of perPoint trials each: trial(r, p, t)
// runs trial t of point p on worker Runner r, and ready(p, trials) receives
// point p's results in trial order. It declares the points on e.Obs and
// commits (or, on error, abandons) each trial's spans.
//
// The calling goroutine is worker 0; any further workers run on goroutines
// of their own for the duration of the call. Between its own trials the
// caller reports every finished point at the head of the batch, in point
// order: point_done, then ready, then point_start of the next point. A
// point's trial slots are allocated when its first trial is claimed and
// dropped once the point is reported.
//
// A worker checks for a failure before it claims a job, and a claimed job
// always runs. So every job before the first failure in job order runs,
// every point before the failed one is reported, the failure's error is
// returned and the failed point stays open in the event log. With one
// worker nothing runs after the failing trial.
func execute[R any](e Exec, labels []string, perPoint int,
	trial func(r *Runner, point, t int) (R, error),
	ready func(point int, trials []R)) error {
	if e.Trace != nil && e.Workers > 1 {
		return fmt.Errorf("bench: tracing requires workers <= 1 (a sink shared across %d workers would record nondeterministically)", e.Workers)
	}
	points := len(labels)
	jobs := points * perPoint
	base := e.Obs.AddPoints(labels, perPoint)

	var (
		mu       sync.Mutex
		next     int    // next job to claim
		fail     = jobs // lowest failed job; jobs while none has failed
		err      error  // job fail's error
		slots    = make([][]R, points)
		finished = make([]int, points) // trials of each point done
		head     int                   // next point to report; the caller's alone
	)

	report := func() {
		for head < points {
			mu.Lock()
			done := finished[head] == perPoint && fail/perPoint != head
			mu.Unlock()
			if !done {
				return
			}
			// Every trial of head has finished, so no worker touches its
			// slots again.
			trials := slots[head]
			slots[head] = nil
			e.Obs.PointDone(base + head)
			ready(head, trials)
			if head++; head < points {
				e.Obs.PointStart(base + head)
			}
		}
	}

	work := func(worker int) {
		r := Runner{Store: e.Store, obs: e.Obs.Worker(worker), Trace: e.Trace}
		for {
			mu.Lock()
			j := next
			if j >= jobs || fail < jobs {
				mu.Unlock()
				return
			}
			next++
			p, t := j/perPoint, j%perPoint
			if t == 0 {
				slots[p] = make([]R, perPoint)
			}
			s := slots[p]
			mu.Unlock()

			res, terr := trial(&r, p, t)
			if terr != nil {
				r.obs.Abandon()
			} else {
				r.obs.Commit(base + p)
			}
			s[t] = res // this job's own slot; the lock below publishes it
			mu.Lock()
			finished[p]++
			if terr != nil && j < fail {
				fail, err = j, terr
			}
			mu.Unlock()
			if worker == 0 {
				report()
			}
		}
	}

	if points > 0 {
		e.Obs.PointStart(base)
	}
	var wg sync.WaitGroup
	for w := 1; w < poolWorkers(e.Workers, jobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	report()
	return err
}
