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
	RecordLatency  bool
	// RecordTail fills the Tail histograms without the exact-sort slices;
	// see Workload.RecordTail.
	RecordTail bool `json:",omitempty"`

	// RecordTimeline and TimelineWindow fill the per-phase and trial
	// timelines; see Workload.RecordTimeline. Both omitempty so
	// pre-existing store keys are untouched.
	RecordTimeline bool   `json:",omitempty"`
	TimelineWindow uint64 `json:",omitempty"`

	Scenario scenario.Scenario

	// legacyQueueRead keeps the queue's read share as the historical
	// dequeue+enqueue pair instead of the real Peek. Only the Workload
	// lowering sets it, so the pre-scenario goldens stay reachable
	// bit-for-bit; declarative scenarios get the genuine front read.
	legacyQueueRead bool
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
	// Latency holds this phase's own percentiles when RecordLatency is set.
	Latency LatencyStats
	// Tail holds this phase's own tail-latency record (per-kind and
	// per-attribution histograms) when RecordLatency is set. Phase tails
	// merge exactly into the trial's Result.Tail.
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
	queuePair bool
}

// scenarioPlan is a compiled scenario: one program per (phase, role), plus
// the thread-to-role assignment.
type scenarioPlan struct {
	progs  [][]segProg // [phase][role]
	roleOf []int       // [thread] -> role index
}

// binding rephrases the binding as a Workload, for the shared checks
// (validBinding), the build and prefill paths, and Result.W, so
// Result.String and downstream reporting keep working. The per-phase fields
// stay zero.
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
// binding, and compiles every (phase, role) program.
func compileScenario(sw ScenarioWorkload) (scenarioPlan, error) {
	sc := &sw.Scenario
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
	if min := sc.MinThreads(); len(sc.Roles) > 0 && sw.Threads < min {
		// A catch-all role must get at least one thread: silently running
		// e.g. mixed-role with zero readers would mislabel the results.
		return scenarioPlan{}, fmt.Errorf("bench: scenario %q needs at least %d threads (role table), binding has %d",
			sc.Name, min, sw.Threads)
	}
	if catchAll < 0 && fixed != sw.Threads {
		return scenarioPlan{}, fmt.Errorf("bench: scenario %q role counts total %d, binding has %d threads",
			sc.Name, fixed, sw.Threads)
	}
	roleOf := make([]int, 0, sw.Threads)
	for i, r := range roles {
		n := r.Count
		if i == catchAll {
			n = sw.Threads - fixed
		}
		for t := 0; t < n; t++ {
			roleOf = append(roleOf, i)
		}
	}

	progs := make([][]segProg, len(sc.Phases))
	for pi, ph := range sc.Phases {
		dist := ph.Dist
		if dist == "" {
			dist = sw.Dist
		}
		kr := ph.KeyRange
		if kr == 0 {
			kr = sw.KeyRange
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
			w := ph.Weights
			if role.Weights != nil {
				w = *role.Weights
			}
			progs[pi][ri] = segProg{
				name:      ph.Name,
				ops:       ph.Ops,
				cycles:    ph.Cycles,
				insLim:    uint64(w.Insert),
				delLim:    uint64(w.Insert + w.Delete),
				total:     uint64(w.Total()),
				gen:       gen,
				keyOffset: uint64(ph.KeyShift * float64(kr)),
				keyRange:  kr,
				work:      work,
				queuePair: sw.legacyQueueRead,
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
	wv := sw.binding()
	if err := validBinding(&wv); err != nil {
		return ScenarioResult{}, err
	}
	return readThrough(r, func() ([]byte, error) { return ScenarioSpecBytes(sw) },
		TrialStore.LookupScenarioSpec, TrialStore.StoreScenarioSpec,
		func() (ScenarioResult, error) { return r.runScenario(sw) })
}

// runScenario is the uncached scenario engine behind RunScenario and Run,
// which have validated the binding.
func (r *Runner) runScenario(sw ScenarioWorkload) (ScenarioResult, error) {
	plan, err := compileScenario(sw)
	if err != nil {
		return ScenarioResult{}, err
	}
	cfg := sim.Config{
		Cores: sw.Threads,
		Seed:  sw.Seed,
		Check: sw.Check,
		Slack: sw.Slack,
	}
	if sw.Cache.Cores != 0 {
		if sw.Cache.Cores != sw.Threads {
			return ScenarioResult{}, fmt.Errorf("bench: cache params cores %d != threads %d", sw.Cache.Cores, sw.Threads)
		}
		if err := sw.Cache.Check(); err != nil {
			return ScenarioResult{}, err
		}
		cfg.Cache = sw.Cache
	}
	m := r.acquire(cfg)

	wv := sw.binding()
	b, err := build(m, wv)
	if err != nil {
		return ScenarioResult{}, err
	}

	sres := ScenarioResult{ScenarioName: sw.Scenario.Name}
	sres.W = wv
	sres.PrefillSize = prefill(m, wv, b)
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
			sw.Scenario.Name, sw.DS, sw.Scheme, sw.Threads, sw.Seed))
		m.SetTrace(r.Trace)
		defer m.SetTrace(nil)
	}

	// Per-thread RNG streams. The prefill consumed machine spawn index 0,
	// so the measured threads run under spawn indices 1..Threads — the
	// seeding the stationary engine has always had (pinned by the goldens).
	rngs := make([]*sim.RNG, sw.Threads)
	for i := range rngs {
		rngs[i] = sim.ThreadRNG(sw.Seed, 1+i)
	}

	totalOps := 0 // serialized by the simulator: safe plain counter
	sample := func() {
		if sw.FootprintEvery > 0 && totalOps%sw.FootprintEvery == 0 {
			sres.Footprint = append(sres.Footprint, FootprintSample{
				AfterOps: totalOps,
				Live:     m.Space.Stats().NodeLive(),
			})
		}
	}

	var allLats []uint64
	// Per-thread tail recorders, reused across phases (Reset keeps the
	// bucket allocations): recording is O(buckets) memory for the whole
	// trial, while the exact-sort slices (RecordLatency only — a
	// RecordTail-only run never allocates them) are O(ops).
	var tails []latency.Tail
	if sw.RecordLatency || sw.RecordTail {
		tails = make([]latency.Tail, sw.Threads)
	}
	// Per-thread timeline recorders, reused across phases exactly like the
	// tail recorders: O(windows) memory however long the trial runs.
	var tlines []trace.Timeline
	var win uint64
	if sw.RecordTimeline {
		win = trace.ResolveWindow(sw.TimelineWindow)
		tlines = make([]trace.Timeline, sw.Threads)
		for i := range tlines {
			tlines[i].Window = win
		}
	}
	baseOps := 0
	baseClock := uint64(0)
	baseRetries := sres.Prefill.Retries
	baseCache := sres.Prefill.Cache
	for pi := range plan.progs {
		var lats [][]uint64
		if sw.RecordLatency {
			lats = make([][]uint64, sw.Threads)
			for i := range lats {
				// Ops-bounded phases know their sample count up front; the
				// hot loop must not grow the slice.
				lats[i] = make([]uint64, 0, plan.progs[pi][plan.roleOf[i]].ops)
			}
		}
		for i := 0; i < sw.Threads; i++ {
			prog := &plan.progs[pi][plan.roleOf[i]]
			rng := rngs[i]
			var lat *[]uint64
			var tail *latency.Tail
			var tline *trace.Timeline
			if lats != nil {
				lat = &lats[i]
			}
			if tails != nil {
				tail = &tails[i]
			}
			if tlines != nil {
				tline = &tlines[i]
			}
			m.Spawn(func(c *sim.Ctx) {
				runSegment(c, b, prog, rng, lat, tail, tline, &totalOps, sample)
			})
		}
		m.Run()

		endClock := m.MaxClock()
		endRetries := m.Retries()
		endCache := m.Hier.Stats()
		seg := PhaseSegment{
			Name:      plan.progs[pi][0].name,
			Ops:       uint64(totalOps - baseOps),
			Cycles:    endClock - baseClock,
			Retries:   endRetries - baseRetries,
			Cache:     subCacheStats(endCache, baseCache),
			LiveNodes: m.Space.Stats().NodeLive(),
		}
		if seg.Cycles > 0 {
			seg.Throughput = float64(seg.Ops) / (float64(seg.Cycles) / 1e6)
		}
		if lats != nil {
			var phaseAll []uint64
			for _, l := range lats {
				phaseAll = append(phaseAll, l...)
			}
			seg.Latency = computeLatency(phaseAll)
			allLats = append(allLats, phaseAll...)
		}
		if tails != nil {
			// Merge the per-thread recorders (in thread order, so merges are
			// deterministic) into this phase's tail, and reset the
			// recorders for the next phase.
			seg.Tail = &latency.Tail{}
			for i := range tails {
				seg.Tail.Merge(&tails[i])
				tails[i].Reset()
			}
		}
		if tlines != nil {
			// Same shape for the timelines: thread-order merge into the
			// phase series, reset for reuse.
			seg.Timeline = &trace.Timeline{Window: win}
			for i := range tlines {
				seg.Timeline.Merge(&tlines[i])
				tlines[i].Reset()
			}
		}
		if r.Trace != nil {
			r.Trace.Phase(plan.progs[pi][0].name, baseClock, endClock)
		}
		sres.Phases = append(sres.Phases, seg)
		baseOps, baseClock, baseRetries, baseCache = totalOps, endClock, endRetries, endCache
	}

	if sw.RecordLatency {
		sres.Latency = computeLatency(allLats)
	}
	// The trial's tail and timeline (nil unless recorded) are its one
	// phase's, the same objects; only several phases merge, in phase order,
	// into records of the trial's own.
	if tails != nil {
		sres.Tail = sres.Phases[0].Tail
		if len(sres.Phases) > 1 {
			sres.Tail = &latency.Tail{}
			for _, seg := range sres.Phases {
				sres.Tail.Merge(seg.Tail)
			}
		}
	}
	if tlines != nil {
		sres.Timeline = sres.Phases[0].Timeline
		if len(sres.Phases) > 1 {
			sres.Timeline = &trace.Timeline{Window: win}
			for _, seg := range sres.Phases {
				sres.Timeline.Merge(seg.Timeline)
			}
		}
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
// (the exact-sort slice and the tail histograms) is host-side bookkeeping
// between simulated operations: it charges no cycles, so recorded and
// unrecorded runs are bit-for-bit identical in simulated behavior.
func runSegment(c *sim.Ctx, b built, prog *segProg, rng *sim.RNG, lat *[]uint64, tail *latency.Tail, tline *trace.Timeline, totalOps *int, sample func()) {
	if prog.ops > 0 {
		span := float64(prog.ops)
		for j := 0; j < prog.ops; j++ {
			c.Work(prog.work(j, float64(j)/span))
			measuredOp(c, b, prog, rng, lat, tail, tline)
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
		measuredOp(c, b, prog, rng, lat, tail, tline)
		*totalOps++
		sample()
	}
}

// measuredOp executes one operation, recording its latency sample (exact
// slice) and its tail classification (kind × attribution histograms) when
// recording is on. Attribution deltas the executing thread's own
// pause-cycle and retry counters (sim.Ctx.PauseCycles/RetryCount — the
// machine-wide Retries total would blame this op for any concurrent
// thread's restart) around the op: an op that absorbed a reclamation scan
// is tagged reclaim (and the pause span itself is recorded), else an op
// that restarted at least once is tagged retry, else useful — so the
// attribution counts partition the op count exactly, like the kind counts
// do.
func measuredOp(c *sim.Ctx, b built, prog *segProg, rng *sim.RNG, lat *[]uint64, tail *latency.Tail, tline *trace.Timeline) {
	sink := c.Trace()
	record := tail != nil || tline != nil || sink != nil
	var pause0, retries0 uint64
	if record {
		pause0, retries0 = c.PauseCycles(), c.RetryCount()
	}
	start := c.Clock()
	kind := progOp(c, b, prog, rng)
	if lat != nil {
		*lat = append(*lat, c.Clock()-start)
	}
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
// delLim=U, total=100 — the identical draw and dispatch. For sets the ops
// are insert/delete/contains; for the stack push/pop/peek; for the queue
// enqueue/dequeue/peek (or the historical dequeue+enqueue pair when the
// program says so).
func progOp(c *sim.Ctx, b built, prog *segProg, rng *sim.RNG) latency.Kind {
	p := rng.Uint64n(prog.total)
	key := prog.gen.Next(rng)
	if prog.keyOffset != 0 {
		// Rotate the drawn key within the phase window so a skewed
		// distribution's hot set lands elsewhere (shifting hotspot).
		key = (key-1+prog.keyOffset)%prog.keyRange + 1
	}
	switch {
	case b.set != nil:
		switch {
		case p < prog.insLim:
			b.set.Insert(c, key)
			return latency.KindInsert
		case p < prog.delLim:
			b.set.Delete(c, key)
			return latency.KindDelete
		default:
			b.set.Contains(c, key)
			return latency.KindRead
		}
	case b.stk != nil:
		switch {
		case p < prog.insLim:
			b.stk.Push(c, key)
			return latency.KindInsert
		case p < prog.delLim:
			b.stk.Pop(c)
			return latency.KindDelete
		default:
			b.stk.Peek(c)
			return latency.KindRead
		}
	default:
		switch {
		case p < prog.insLim:
			b.que.Enqueue(c, key)
			return latency.KindInsert
		case p < prog.delLim:
			b.que.Dequeue(c)
			return latency.KindDelete
		default:
			if prog.queuePair {
				// The historical "read": a dequeue+enqueue pair keeping the
				// size stable. Reachable only through the Workload lowering,
				// where the goldens pin it.
				if v, ok := b.que.Dequeue(c); ok {
					b.que.Enqueue(c, v)
				}
			} else {
				b.que.Peek(c)
			}
			return latency.KindRead
		}
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
