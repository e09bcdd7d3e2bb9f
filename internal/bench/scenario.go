package bench

import (
	"fmt"

	"condaccess/internal/cache"
	"condaccess/internal/latency"
	"condaccess/internal/scenario"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
	"condaccess/internal/trace"
)

// ScenarioWorkload binds a declarative scenario to a data structure, a
// reclamation scheme, and a machine geometry. The scenario supplies the
// shape of the load (phases, roles, op mixes, intensity profiles); the
// binding supplies everything the simulator needs to host it. The zero
// fields default exactly as Workload's do.
type ScenarioWorkload struct {
	DS     string
	Scheme string

	Threads  int
	KeyRange uint64 // default key window for phases that don't set one
	Buckets  int    // hash only; 0 means hashtable.DefaultBuckets

	Seed  uint64
	Check bool

	SMR   smr.Options
	Cache cache.Params
	Slack uint64

	// Dist is the default key distribution for phases that don't name one.
	Dist string

	FootprintEvery int
	// RecordLatency fills the trial's and each phase's Tail and Latency,
	// and RecordTail the Tail alone; see Workload.RecordLatency.
	RecordLatency bool
	RecordTail    bool `json:",omitempty"`

	// RecordTimeline and TimelineWindow fill the per-phase and trial
	// timelines; see Workload.RecordTimeline. Both omitempty so
	// pre-existing store keys are untouched.
	RecordTimeline bool   `json:",omitempty"`
	TimelineWindow uint64 `json:",omitempty"`

	Scenario scenario.Scenario
}

// PhaseSegment is one phase's slice of a scenario trial: operation count,
// the phase's wall-clock window, and the deltas of every cumulative counter
// over that window. Phases are separated by a global barrier (each phase is
// its own sim Run), so the windows partition the measured run exactly:
// segment Ops/Cycles/Retries/Cache sum to the trial totals (Retries and
// Cache on top of the prefill segment's share).
type PhaseSegment struct {
	Name       string
	Ops        uint64      // operations completed in this phase (all threads)
	Cycles     uint64      // wall-clock window: max core clock advance
	Throughput float64     // ops per million cycles within the window
	Retries    uint64      // operation restarts within the window
	Cache      cache.Stats // cache-event deltas within the window
	LiveNodes  uint64      // allocated-not-freed nodes at phase end
	// Latency is the summary of Tail.Total when RecordLatency is set.
	Latency LatencyStats
	// Tail holds this phase's own tail-latency record (per-kind and
	// per-attribution histograms) when RecordLatency or RecordTail is set.
	// Phase tails merge exactly into the trial's Result.Tail.
	Tail *latency.Tail `json:",omitempty"`
	// Timeline holds this phase's windowed sim-time metrics when
	// RecordTimeline is set. Phases share the trial's cycle axis (clocks
	// are not reset between phases), so a later phase's series carries
	// zero windows for the earlier phases' span, and phase timelines merge
	// exactly into the trial's Result.Timeline.
	Timeline *trace.Timeline `json:",omitempty"`
}

// ScenarioResult is a scenario trial: the familiar whole-trial Result plus
// the per-phase breakdown. Result's totals keep their legacy meaning
// (Retries and Cache accumulate from the prefill on), so the prefill's share
// is reported as its own segment: Result = Prefill + sum(Phases) for every
// delta field, while Ops and Cycles (which legacy accounting already scoped
// to the measured run) sum over Phases alone. In a one-phase trial the
// trial's Tail and Timeline may be that phase's, one object each, so a
// caller that changes one changes both.
type ScenarioResult struct {
	Result
	ScenarioName string
	Prefill      PhaseSegment
	Phases       []PhaseSegment
}

// workFn is a compiled intensity profile: per-op think-time cycles as a
// function of the op index within the phase and the fraction of the phase
// already elapsed (op fraction for ops-bounded phases, cycle fraction for
// cycle-bounded ones).
type workFn func(j int, frac float64) uint64

// segProg is one phase compiled for one role: integer thresholds over the
// weight total (p < insLim: insert; p < delLim: delete; else read), the
// phase's key generator and window, and the think-time schedule. The
// canonical Workload lowering compiles to exactly the draws and charges the
// stationary engine made, which is what keeps the goldens bit-for-bit.
type segProg struct {
	name      string
	ops       int
	cycles    uint64
	insLim    uint64
	delLim    uint64
	total     uint64
	gen       keygen
	keyOffset uint64
	keyRange  uint64
	work      workFn
}

// scenarioPlan is a compiled scenario: one program per (phase, role), plus
// the thread-to-role assignment.
type scenarioPlan struct {
	progs  [][]segProg // [phase][role]
	roleOf []int       // [thread] -> role index
}

// binding rephrases the binding as a Workload, the engine's input
// (runScenario) and Result.W, so Result.String and downstream reporting keep
// working. The per-phase fields stay zero.
func (sw *ScenarioWorkload) binding() Workload {
	return Workload{
		DS: sw.DS, Scheme: sw.Scheme,
		Threads: sw.Threads, KeyRange: sw.KeyRange, Buckets: sw.Buckets,
		Seed: sw.Seed, Check: sw.Check,
		SMR: sw.SMR, Cache: sw.Cache, Slack: sw.Slack,
		Dist: sw.Dist, FootprintEvery: sw.FootprintEvery,
		RecordLatency: sw.RecordLatency, RecordTail: sw.RecordTail,
		RecordTimeline: sw.RecordTimeline, TimelineWindow: sw.TimelineWindow,
	}
}

// compileScenario resolves defaults, checks the scenario against the
// binding w, and compiles every (phase, role) program.
func compileScenario(w Workload, sc *scenario.Scenario) (scenarioPlan, error) {
	if err := sc.Validate(); err != nil {
		return scenarioPlan{}, err
	}

	// Thread-to-role assignment: roles take threads in declaration order,
	// a catch-all (Count 0) role absorbing the remainder.
	roles := sc.Roles
	if len(roles) == 0 {
		roles = []scenario.Role{{Name: "uniform"}}
	}
	fixed := 0
	catchAll := -1
	for i, r := range roles {
		if r.Count == 0 {
			catchAll = i
		}
		fixed += r.Count
	}
	if min := sc.MinThreads(); len(sc.Roles) > 0 && w.Threads < min {
		// A catch-all role must get at least one thread: silently running
		// e.g. mixed-role with zero readers would mislabel the results.
		return scenarioPlan{}, fmt.Errorf("bench: scenario %q needs at least %d threads (role table), binding has %d",
			sc.Name, min, w.Threads)
	}
	if catchAll < 0 && fixed != w.Threads {
		return scenarioPlan{}, fmt.Errorf("bench: scenario %q role counts total %d, binding has %d threads",
			sc.Name, fixed, w.Threads)
	}
	roleOf := make([]int, 0, w.Threads)
	for i, r := range roles {
		n := r.Count
		if i == catchAll {
			n = w.Threads - fixed
		}
		for t := 0; t < n; t++ {
			roleOf = append(roleOf, i)
		}
	}

	progs := make([][]segProg, len(sc.Phases))
	for pi, ph := range sc.Phases {
		dist := ph.Dist
		if dist == "" {
			dist = w.Dist
		}
		kr := ph.KeyRange
		if kr == 0 {
			kr = w.KeyRange
		}
		gen, err := newKeygen(dist, kr)
		if err != nil {
			return scenarioPlan{}, fmt.Errorf("bench: scenario %q phase %d: %w", sc.Name, pi, err)
		}
		work, err := compileProfile(ph.Profile)
		if err != nil {
			return scenarioPlan{}, fmt.Errorf("bench: scenario %q phase %d: %w", sc.Name, pi, err)
		}
		progs[pi] = make([]segProg, len(roles))
		for ri, role := range roles {
			wt := ph.Weights
			if role.Weights != nil {
				wt = *role.Weights
			}
			progs[pi][ri] = segProg{
				name:      ph.Name,
				ops:       ph.Ops,
				cycles:    ph.Cycles,
				insLim:    uint64(wt.Insert),
				delLim:    uint64(wt.Insert + wt.Delete),
				total:     uint64(wt.Total()),
				gen:       gen,
				keyOffset: uint64(ph.KeyShift * float64(kr)),
				keyRange:  kr,
				work:      work,
			}
		}
	}
	return scenarioPlan{progs: progs, roleOf: roleOf}, nil
}

// compileProfile turns a declarative intensity profile into a workFn. A
// zero Work (or ramp endpoint, or burst height) means DefaultOpWork, the
// same defaulting Workload.OpWorkCycles has always had.
func compileProfile(p scenario.Profile) (workFn, error) {
	def := func(v uint64) uint64 {
		if v == 0 {
			return DefaultOpWork
		}
		return v
	}
	base := def(p.Work)
	switch p.Kind {
	case "", scenario.ProfileConstant:
		return func(int, float64) uint64 { return base }, nil
	case scenario.ProfileRamp:
		f0, f1 := float64(def(p.From)), float64(def(p.To))
		return func(_ int, frac float64) uint64 { return uint64(f0 + (f1-f0)*frac) }, nil
	case scenario.ProfileBurst:
		burst := def(p.BurstWork)
		period, ln := p.Period, p.Len
		return func(j int, _ float64) uint64 {
			if j%period < ln {
				return burst
			}
			return base
		}, nil
	case scenario.ProfilePiecewise:
		bounds := make([]int, len(p.Steps))
		works := make([]uint64, len(p.Steps))
		sum := 0
		for i, s := range p.Steps {
			sum += s.Ops
			bounds[i] = sum
			works[i] = def(s.Work)
		}
		last := works[len(works)-1]
		return func(j int, _ float64) uint64 {
			for i, b := range bounds {
				if j < b {
					return works[i]
				}
			}
			return last
		}, nil
	default:
		return nil, fmt.Errorf("bench: unknown profile kind %q", p.Kind)
	}
}

// RunScenario executes one scenario trial: build, prefill to 50%, reset
// clocks, then one sim Run phase per scenario phase — the Run boundary is
// the inter-phase barrier, so per-phase counter deltas are exact. Each
// thread's workload RNG stream is created once and carried across phases
// (phases continue the stream; they do not replay it).
//
// A malformed binding is rejected before the store is consulted. With a
// Store attached, the trial is read-through/write-through cached under the
// scenario's canonical spec: a warm call returns the cold call's exact
// serialized result without simulating. (The stationary Workload path
// validates and keys on the Workload itself in Run and calls runScenario
// directly, so one trial is never checked twice or cached under two keys.)
func (r *Runner) RunScenario(sw ScenarioWorkload) (ScenarioResult, error) {
	w := sw.binding()
	if err := validBinding(&w); err != nil {
		return ScenarioResult{}, err
	}
	return readThrough(r, func() ([]byte, error) { return ScenarioSpecBytes(sw) },
		TrialStore.LookupScenarioSpec, TrialStore.StoreScenarioSpec,
		func() (ScenarioResult, error) { return r.runScenario(w, sw.Scenario) })
}

// runScenario is the uncached engine behind RunScenario and Run, which have
// validated the binding w: it runs scenario sc on w's structure, scheme and
// machine, and reports w as Result.W.
func (r *Runner) runScenario(w Workload, sc scenario.Scenario) (ScenarioResult, error) {
	plan, err := compileScenario(w, &sc)
	if err != nil {
		return ScenarioResult{}, err
	}
	cfg := sim.Config{
		Cores: w.Threads,
		Check: w.Check,
		Slack: w.Slack,
	}
	if w.Cache.Cores != 0 {
		if w.Cache.Cores != w.Threads {
			return ScenarioResult{}, fmt.Errorf("bench: cache params cores %d != threads %d", w.Cache.Cores, w.Threads)
		}
		if err := w.Cache.Check(); err != nil {
			return ScenarioResult{}, err
		}
		cfg.Cache = w.Cache
	}
	m := r.acquire(cfg)

	b, err := build(m, w)
	if err != nil {
		return ScenarioResult{}, err
	}

	sres := ScenarioResult{ScenarioName: sc.Name}
	sres.W = w
	sres.PrefillSize = prefill(m, w, b)
	sres.Prefill = PhaseSegment{
		Name:      "prefill",
		Ops:       uint64(sres.PrefillSize),
		Cycles:    m.MaxClock(),
		Retries:   m.Retries(),
		Cache:     m.Hier.Stats(),
		LiveNodes: m.Space.Stats().NodeLive(),
	}
	m.ResetClocks()

	// Attach the event sink only now — after build and prefill, with the
	// clocks reset — so trace timestamps live on the measured run's cycle
	// axis (the same axis the timeline and tail recorders use), and detach
	// it before the machine returns to the Runner's cache, error or not.
	if r.Trace != nil {
		r.Trace.BeginTrial(fmt.Sprintf("%s %s/%s t=%d seed=%d",
			sc.Name, w.DS, w.Scheme, w.Threads, w.Seed))
		m.SetTrace(r.Trace)
		defer m.SetTrace(nil)
	}

	// Thread i draws from stream 1+i of the seed (the goldens pin this
	// numbering), built once here and carried across phases.
	rngs := make([]*sim.RNG, w.Threads)
	for i := range rngs {
		rngs[i] = sim.ThreadRNG(w.Seed, 1+i)
	}

	totalOps := 0 // serialized by the simulator: safe plain counter
	sample := func() {
		if w.FootprintEvery > 0 && totalOps%w.FootprintEvery == 0 {
			sres.Footprint = append(sres.Footprint, FootprintSample{
				AfterOps: totalOps,
				Live:     m.Space.Stats().NodeLive(),
			})
		}
	}

	win := trace.ResolveWindow(w.TimelineWindow)
	baseOps := 0
	baseClock := uint64(0)
	baseRetries := sres.Prefill.Retries
	baseCache := sres.Prefill.Cache
	for pi := range plan.progs {
		// One recorder of each kind per phase: one simulated thread runs at
		// a time, so every thread records straight into the phase's. The
		// threads capture the two pointers, not the segment, which would
		// move to the heap.
		seg := PhaseSegment{Name: plan.progs[pi][0].name}
		if w.RecordLatency || w.RecordTail {
			seg.Tail = &latency.Tail{}
		}
		if w.RecordTimeline {
			seg.Timeline = &trace.Timeline{Window: win}
		}
		tail, tline := seg.Tail, seg.Timeline
		for i := 0; i < w.Threads; i++ {
			prog := &plan.progs[pi][plan.roleOf[i]]
			rng := rngs[i]
			m.Spawn(func(c *sim.Ctx) {
				runSegment(c, b, prog, rng, tail, tline, &totalOps, sample)
			})
		}
		m.Run()

		endClock := m.MaxClock()
		endRetries := m.Retries()
		endCache := m.Hier.Stats()
		seg.Ops = uint64(totalOps - baseOps)
		seg.Cycles = endClock - baseClock
		seg.Retries = endRetries - baseRetries
		seg.Cache = subCacheStats(endCache, baseCache)
		seg.LiveNodes = m.Space.Stats().NodeLive()
		if seg.Cycles > 0 {
			seg.Throughput = float64(seg.Ops) / (float64(seg.Cycles) / 1e6)
		}
		if w.RecordLatency {
			seg.Latency = latencyStats(&tail.Total)
		}
		if r.Trace != nil {
			r.Trace.Phase(seg.Name, baseClock, endClock)
		}
		sres.Phases = append(sres.Phases, seg)
		baseOps, baseClock, baseRetries, baseCache = totalOps, endClock, endRetries, endCache
	}

	// The trial's tail and timeline (nil unless recorded) are its one
	// phase's, the same objects; only several phases merge, in phase order,
	// into records of the trial's own.
	sres.Tail, sres.Timeline = sres.Phases[0].Tail, sres.Phases[0].Timeline
	if len(sres.Phases) > 1 && sres.Tail != nil {
		sres.Tail = &latency.Tail{}
		for _, seg := range sres.Phases {
			sres.Tail.Merge(seg.Tail)
		}
	}
	if len(sres.Phases) > 1 && sres.Timeline != nil {
		sres.Timeline = &trace.Timeline{Window: win}
		for _, seg := range sres.Phases {
			sres.Timeline.Merge(seg.Timeline)
		}
	}
	if w.RecordLatency {
		sres.Latency = latencyStats(&sres.Tail.Total)
	}
	sres.Ops = uint64(totalOps)
	sres.Cycles = m.MaxClock()
	if sres.Cycles > 0 {
		sres.Throughput = float64(sres.Ops) / (float64(sres.Cycles) / 1e6)
	}
	sres.Retries = m.Retries()
	sres.Cache = m.Hier.Stats()
	sres.CA = m.CAStats()
	if b.rec != nil {
		sres.SMR = b.rec.Stats()
	}
	sres.Mem = m.Space.Stats()
	return sres, nil
}

// RunScenario executes one scenario trial on a fresh machine.
func RunScenario(sw ScenarioWorkload) (ScenarioResult, error) {
	var r Runner
	return r.RunScenario(sw)
}

// runSegment is one thread's execution of one phase: think, op, account —
// the same charge-and-draw sequence per op the stationary engine made, with
// the phase program supplying thresholds, keys, and think time. Recording
// (the tail histograms and the timeline) is host-side bookkeeping between
// simulated operations: it charges no cycles, so recorded and unrecorded
// runs are bit-for-bit identical in simulated behavior.
func runSegment(c *sim.Ctx, b built, prog *segProg, rng *sim.RNG, tail *latency.Tail, tline *trace.Timeline, totalOps *int, sample func()) {
	if prog.ops > 0 {
		span := float64(prog.ops)
		for j := 0; j < prog.ops; j++ {
			c.Work(prog.work(j, float64(j)/span))
			measuredOp(c, b, prog, rng, tail, tline)
			*totalOps++
			sample()
		}
		return
	}
	phaseStart := c.Clock()
	span := float64(prog.cycles)
	for j := 0; ; j++ {
		elapsed := c.Clock() - phaseStart
		if elapsed >= prog.cycles {
			return
		}
		c.Work(prog.work(j, float64(elapsed)/span))
		measuredOp(c, b, prog, rng, tail, tline)
		*totalOps++
		sample()
	}
}

// measuredOp executes one operation, recording its latency and its tail
// classification (kind × attribution histograms), its timeline window and
// its trace event when each is on. Attribution deltas the executing
// thread's own pause-cycle and retry counters (sim.Ctx.PauseCycles/RetryCount
// — the machine-wide Retries total would blame this op for any concurrent
// thread's restart) around the op: an op that absorbed a reclamation scan
// is tagged reclaim (and the pause span itself is recorded), else an op
// that restarted at least once is tagged retry, else useful — so the
// attribution counts partition the op count exactly, like the kind counts
// do.
func measuredOp(c *sim.Ctx, b built, prog *segProg, rng *sim.RNG, tail *latency.Tail, tline *trace.Timeline) {
	sink := c.Trace()
	record := tail != nil || tline != nil || sink != nil
	var pause0, retries0 uint64
	if record {
		pause0, retries0 = c.PauseCycles(), c.RetryCount()
	}
	start := c.Clock()
	kind := progOp(c, b, prog, rng)
	if record {
		end := c.Clock()
		dp := c.PauseCycles() - pause0
		dr := c.RetryCount() - retries0
		attr := latency.AttrUseful
		if dp != 0 {
			attr = latency.AttrReclaim
		} else if dr != 0 {
			attr = latency.AttrRetry
		}
		if tail != nil {
			if dp != 0 {
				tail.RecordPause(dp)
			}
			tail.Record(kind, attr, end-start)
		}
		if tline != nil {
			tline.RecordOp(end, kind, dr, dp)
		}
		sink.Op(c.ThreadID(), kind, attr, start, end)
	}
}

// progOp draws and executes one operation under a phase program, returning
// the op's kind tag for the tail recorder. The weight thresholds generalize
// the historical UpdatePct/2 split: lowering a Workload yields insLim=U/2,
// delLim=U, total=100 — the identical draw and dispatch. Every structure
// draws a key for every op; the stack and the queue ignore it but on insert
// (stackOps, queueOps).
func progOp(c *sim.Ctx, b built, prog *segProg, rng *sim.RNG) latency.Kind {
	p := rng.Uint64n(prog.total)
	key := prog.gen.Next(rng)
	if prog.keyOffset != 0 {
		// Rotate the drawn key within the phase window so a skewed
		// distribution's hot set lands elsewhere (shifting hotspot).
		key = (key-1+prog.keyOffset)%prog.keyRange + 1
	}
	switch {
	case p < prog.insLim:
		b.ops.Insert(c, key)
		return latency.KindInsert
	case p < prog.delLim:
		b.ops.Delete(c, key)
		return latency.KindDelete
	default:
		b.ops.Contains(c, key)
		return latency.KindRead
	}
}

// MeasuredCache returns the cache-event deltas of the measured run alone —
// the trial totals minus the prefill segment's share, i.e. the quantity the
// per-phase segments sum to.
func (r ScenarioResult) MeasuredCache() cache.Stats {
	return subCacheStats(r.Cache, r.Prefill.Cache)
}

// subCacheStats returns the componentwise difference a-b of two cumulative
// cache counters.
func subCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		L1Hits:        a.L1Hits - b.L1Hits,
		L1Misses:      a.L1Misses - b.L1Misses,
		L2Hits:        a.L2Hits - b.L2Hits,
		L2Misses:      a.L2Misses - b.L2Misses,
		Invalidations: a.Invalidations - b.Invalidations,
		RemoteFwds:    a.RemoteFwds - b.RemoteFwds,
		Upgrades:      a.Upgrades - b.Upgrades,
		L1Evictions:   a.L1Evictions - b.L1Evictions,
		BackInvals:    a.BackInvals - b.BackInvals,
	}
}
