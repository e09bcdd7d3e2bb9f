package bench

import (
	"fmt"
	"slices"

	"condaccess/internal/cache"
	"condaccess/internal/latency"
	"condaccess/internal/obs"
	"condaccess/internal/scenario"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
	"condaccess/internal/trace"
)

// Runner executes trials on reusable simulated machines. Building a machine
// allocates the simulated heap, both cache levels, and the CA tag tables;
// a Runner keeps one machine per distinct geometry (thread count × cache
// params) and rewinds it with sim.Machine.Reset between trials instead of
// rebuilding, so a sweep's dominant allocation cost is paid once per
// geometry rather than once per trial. A reset machine is bit-for-bit
// equivalent to a fresh one, so results are identical either way. A Runner
// is not safe for concurrent use; the executor (Exec) gives each worker its
// own.
type Runner struct {
	machines map[cache.Params]*sim.Machine

	// Store, when non-nil, is consulted before every trial and updated after
	// every simulated one (read-through/write-through): a hit returns the
	// cached complete result and skips simulation entirely. The executor
	// sets it to Exec.Store on every worker.
	Store TrialStore

	// obs, when non-nil, receives this Runner's per-trial phase spans
	// (prepare, store lookup, simulate, store write) and warm-hit marks.
	// Recording is strictly out-of-band — it never changes a result, a
	// store key, or an error — and a nil recorder costs nothing: every
	// method is a nil-receiver no-op. Only the executor (Exec) sets it, and
	// it commits or abandons each trial's spans under the trial's point.
	obs *obs.WorkerRec

	// Trace, when non-nil, receives every simulated trial's full event
	// stream: the Runner opens a trial track on it and attaches it to the
	// machine for the measured run (after prefill, once the clocks are
	// reset, so trace timestamps share the measured cycle axis). Strictly
	// observational — results are bit-for-bit identical with or without it
	// — and warm store hits emit no events (nothing was simulated). Like
	// the Runner itself, a shared sink is not safe for concurrent use.
	Trace *trace.Sink
}

// Run executes one trial: build, prefill to 50%, reset clocks, run the
// measured mixed workload, and collect every statistic the experiments
// report. It is equivalent to the package-level Run but may reuse a machine
// from an earlier trial with the same geometry.
//
// The stationary Workload is executed by lowering it onto the scenario
// engine (runScenario) as the canonical single-phase, uniform-role,
// constant-intensity scenario (stationary), with the queue's historical
// read pair. The lowering is bit-for-bit: the compiled program reproduces
// the historical engine's exact draw and charge sequence, which
// testdata/golden.json pins.
func (r *Runner) Run(w Workload) (Result, error) {
	if err := validate(&w); err != nil {
		return Result{}, err
	}
	return readThrough(r, func() ([]byte, error) { return TrialSpecBytes(w) },
		TrialStore.LookupTrialSpec, TrialStore.StoreTrialSpec,
		func() (Result, error) {
			sres, err := r.runScenario(w, stationary(w), true)
			return sres.Result, err
		})
}

// readThrough runs one trial through the Runner's store and records its
// four phases on the Runner's recorder: prepare canonicalizes the spec,
// lookup returns a stored result (a warm hit skips the rest), simulate runs
// the trial, and store writes its result through. Without a store only
// simulate does work. The spec is marshaled once, and the store memoizes
// the derived content key on it across the lookup and the write-through,
// so a miss never marshals or hashes the spec a second time.
func readThrough[R any](r *Runner, spec func() ([]byte, error),
	lookup func(TrialStore, *PreparedSpec) (R, bool),
	store func(TrialStore, *PreparedSpec, R) error,
	simulate func() (R, error)) (R, error) {
	var zero R
	var ps *PreparedSpec
	t0 := r.obs.Start(obs.PhasePrepare)
	if r.Store != nil {
		b, err := spec()
		if err != nil {
			return zero, fmt.Errorf("bench: encoding canonical spec: %w", err)
		}
		ps = &PreparedSpec{Spec: b}
	}
	r.obs.End(obs.PhasePrepare, t0)
	if ps != nil {
		t0 = r.obs.Start(obs.PhaseLookup)
		res, ok := lookup(r.Store, ps)
		r.obs.End(obs.PhaseLookup, t0)
		if ok {
			r.obs.Warm()
			return res, nil
		}
	}
	t0 = r.obs.Start(obs.PhaseSimulate)
	res, err := simulate()
	r.obs.End(obs.PhaseSimulate, t0)
	if err != nil {
		return zero, err
	}
	if ps != nil {
		t0 = r.obs.Start(obs.PhaseStore)
		err = store(r.Store, ps, res)
		r.obs.End(obs.PhaseStore, t0)
		if err != nil {
			return zero, fmt.Errorf("bench: storing trial result: %w", err)
		}
	}
	return res, nil
}

// stationary expresses a stationary Workload's op mix as a scenario: one
// phase of OpsPerThread ops, the UpdatePct/2 split as an explicit weight
// table over 100 (insert U/2, delete U-U/2, read 100-U — integer division
// included), a constant think-time profile and no roles.
func stationary(w Workload) scenario.Scenario {
	u := w.UpdatePct
	return scenario.Scenario{
		Name: "stationary",
		Phases: []scenario.Phase{{
			Name:    "measured",
			Ops:     w.OpsPerThread,
			Weights: scenario.Weights{Insert: u / 2, Delete: u - u/2, Read: 100 - u},
			Profile: scenario.Profile{Work: w.OpWorkCycles},
		}},
	}
}

// maxRunnerMachines bounds how many fully-built machines one Runner keeps.
// A machine's simulated heap grows to its largest trial's footprint, and a
// wide sweep can cross many geometries (one per thread count), so an
// unbounded cache would multiply peak memory by workers × geometries.
const maxRunnerMachines = 4

// acquire returns a machine for cfg, resetting a cached one when its
// geometry matches and building (and caching) a fresh one otherwise. When
// the cache would exceed maxRunnerMachines it is dropped wholesale — crude
// but deterministic, and sweeps revisit geometries often enough that the
// amortization survives.
func (r *Runner) acquire(cfg sim.Config) *sim.Machine {
	key := cfg.Cache
	if key.Cores == 0 {
		key = cache.DefaultParams(cfg.Cores)
	}
	if m := r.machines[key]; m != nil && m.Reset(cfg) {
		return m
	}
	m := sim.New(cfg)
	if r.machines == nil {
		r.machines = make(map[cache.Params]*sim.Machine)
	} else if len(r.machines) >= maxRunnerMachines {
		clear(r.machines)
	}
	r.machines[key] = m
	return m
}

// Run executes one trial on a fresh machine. Sweeps use a Runner to reuse
// machines across trials; the results are identical.
func Run(w Workload) (Result, error) {
	var r Runner
	return r.Run(w)
}

// validate rejects a malformed stationary workload up front: the binding
// checks every trial shares, then the update percentage and op count that
// only a stationary workload has.
func validate(w *Workload) error {
	if err := validBinding(w); err != nil {
		return err
	}
	if w.UpdatePct < 0 || w.UpdatePct > 100 {
		return fmt.Errorf("bench: update pct %d out of [0,100]", w.UpdatePct)
	}
	if w.OpsPerThread <= 0 {
		return fmt.Errorf("bench: ops per thread must be positive")
	}
	return nil
}

// validBinding checks the fields a Workload shares with a ScenarioWorkload
// (a scenario trial passes its binding's Workload view), including those
// (distribution, scheme, buckets) that historically failed later, mid-build
// or after the prefill had already run. Scenario-structural checks live in
// scenario.Validate and the binding-dependent ones in compileScenario.
func validBinding(w *Workload) error {
	if w.Threads <= 0 || w.Threads > 64 {
		return fmt.Errorf("bench: threads %d out of [1,64]", w.Threads)
	}
	if w.KeyRange == 0 {
		return fmt.Errorf("bench: key range must be positive")
	}
	if w.Buckets < 0 {
		return fmt.Errorf("bench: buckets %d must be non-negative", w.Buckets)
	}
	if w.FootprintEvery < 0 {
		return fmt.Errorf("bench: footprint interval %d must be non-negative", w.FootprintEvery)
	}
	if err := validTimelineWindow(w.TimelineWindow); err != nil {
		return err
	}
	if err := validDist(w.Dist); err != nil {
		return err
	}
	if err := validDS(w.DS); err != nil {
		return err
	}
	return validScheme(w.Scheme)
}

func validTimelineWindow(w uint64) error {
	if w != 0 && w < trace.MinWindow {
		return fmt.Errorf("bench: timeline window %d below minimum %d cycles", w, trace.MinWindow)
	}
	return nil
}

func validDS(ds string) error {
	if slices.Contains(Structures(), ds) {
		return nil
	}
	return fmt.Errorf("bench: unknown structure %q", ds)
}

// validScheme runs on every trial, warm hits included, so it checks the
// name without building Schemes' list.
func validScheme(scheme string) error {
	if scheme == "ca" || slices.Contains(smr.Names(), scheme) {
		return nil
	}
	return fmt.Errorf("bench: unknown scheme %q", scheme)
}

func validDist(dist string) error {
	switch dist {
	case "", DistUniform, DistZipf:
		return nil
	}
	return fmt.Errorf("bench: unknown key distribution %q", dist)
}

// prefill brings the structure to 50% occupancy using thread 0, returning
// the number of elements inserted. It inserts random keys until KeyRange/2
// inserts have succeeded: a set then holds half the key range, and a stack
// or a queue, whose every insert succeeds, KeyRange/2 elements.
func prefill(m *sim.Machine, w Workload, b built) int {
	target := int(w.KeyRange / 2)
	if target == 0 {
		target = 1
	}
	n := 0
	m.Spawn(func(c *sim.Ctx) {
		rng := sim.NewRNG(w.Seed ^ 0xA5A5A5A5)
		for n < target {
			if b.ops.Insert(c, rng.Uint64n(w.KeyRange)+1) {
				n++
			}
		}
	})
	m.Run()
	return n
}

// latencyStats is the LatencyStats view of a window's latency histogram:
// Samples, Max and MeanCycles exact, the percentiles bucket upper bounds.
func latencyStats(h *latency.Hist) LatencyStats {
	s := h.Summary()
	return LatencyStats{
		Samples: int(s.Samples),
		P50:     s.P50, P90: s.P90,
		P99: s.P99, P999: s.P999,
		Max:        s.Max,
		MeanCycles: s.Mean,
	}
}
