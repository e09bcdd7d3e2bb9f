// Package sim is the deterministic multicore simulator the reproduction runs
// on — the stand-in for the paper's Graphite.
//
// Each simulated thread is a coroutine pinned to a simulated core with its
// own cycle clock, and the whole machine executes on the single goroutine
// that calls Machine.Run. Scheduling is conservative, in the spirit of
// Graphite's "lax" synchronization: exactly one thread executes at a time,
// and when its quantum expires it suspends back into the event loop, which
// resumes the runnable thread with the smallest clock — a pair of coroutine
// transfers, with no channels, no goroutine park/unpark, and no runtime
// scheduler on the critical path. A thread may run until its clock passes
// the next-smallest clock plus a slack window. Because exactly one thread
// executes between transfers, every simulated memory access is atomic, the
// memory model is sequentially consistent, and — because scheduling depends
// only on the clocks — every run is bit-for-bit reproducible.
//
// Simulated time comes from the cache model: every access returns a latency
// (package cache) charged to the issuing core, whose own cache port serves
// its loads, stores and Conditional Access instructions (package core).
package sim

import (
	"fmt"
	"iter"
	"slices"

	"condaccess/internal/cache"
	"condaccess/internal/core"
	"condaccess/internal/mem"
	"condaccess/internal/trace"
)

// Config describes a simulated machine.
type Config struct {
	// Cores is the number of simulated cores (= maximum concurrent threads).
	Cores int
	// Cache overrides the hierarchy parameters; zero value means
	// cache.DefaultParams(Cores).
	Cache cache.Params
	// Slack is the scheduling quantum in cycles: a thread may run until its
	// clock exceeds the next runnable thread's clock by Slack. Zero means
	// DefaultSlack. Smaller values interleave more finely (and run slower).
	Slack uint64
	// Check enables the executable safety invariants: use-after-free
	// detection on every access and the Conditional Access generation checks
	// (the paper's Theorems 6 and 7).
	Check bool
}

// DefaultSlack is the scheduling quantum when Config.Slack is zero;
// DefaultAllocCycles and DefaultFreeCycles are the allocator's cost per
// node, charged by Ctx.AllocNode and Ctx.Free.
const (
	DefaultSlack       = 200
	DefaultAllocCycles = 30
	DefaultFreeCycles  = 20
)

func (c Config) withDefaults() Config {
	if c.Cache.Cores == 0 {
		c.Cache = cache.DefaultParams(c.Cores)
	}
	if c.Cache.Cores != c.Cores {
		panic("sim: cache params core count mismatch")
	}
	if c.Slack == 0 {
		c.Slack = DefaultSlack
	}
	return c
}

// Machine is a simulated multicore. Build one with New, add threads with
// Spawn, and execute them to completion with Run. A machine can run several
// phases (e.g. a single-threaded prefill followed by the measured workload);
// heap and cache state persist across phases. Reset rewinds a machine to its
// post-New state so sweeps can reuse one machine's allocations across trials.
type Machine struct {
	cfg      Config
	Space    *mem.Space
	Hier     *cache.Hierarchy
	clocks   []uint64
	latFence uint64 // cached Hier latency: Ctx.Fence is on the hot path

	threads []*thread

	// Scheduler state. live holds the runnable threads; its order carries the
	// historical tie-break (spawn order, perturbed by swap-removal of finished
	// threads), and pos indexes it by core so the loop removes a finishing
	// thread in O(1). runq holds the same threads' cores sorted by (clock,
	// live-list position): its head runs next, and the entry after it bounds
	// the head's quantum. Both are sized once in New.
	live []*thread
	pos  []int
	runq []int32

	// slab is the per-thread scheduler-state arena: one thread record (with
	// its embedded Ctx) per core, allocated once in New and recycled across
	// every Run phase and Reset, so steady-state spawning allocates nothing.
	// Thread i of a phase is always &slab[i] — cores are assigned in spawn
	// order, so the record's identity is the core.
	slab []thread

	// trace is the attached event sink, nil when tracing is off. Every
	// producer guards with one nil check, so the off path costs a single
	// predictable branch.
	trace *trace.Sink

	// retries counts every thread's operation restarts (Ctx.CountRetry)
	// since New or Reset. ResetClocks leaves it alone, so it spans the
	// prefill and every measured phase.
	retries uint64
}

// thread is one simulated thread's scheduler record. Its lifetime is a
// single Run phase, but the record itself lives in the machine's slab and is
// reused; only the coroutine (resume/stop) is per-phase.
type thread struct {
	c    int // core
	m    *Machine
	body func(*Ctx)

	// resume continues this thread's coroutine until its next quantum expiry
	// (second value true) or until the body returns (false); stop unwinds a
	// suspended body. Both are nil on the single-thread fast path, which
	// never materializes a coroutine. Only the event loop calls them.
	resume func() (struct{}, bool)
	stop   func()

	// ctx is the thread's execution context, embedded so per-phase context
	// setup is a field reset, not an allocation. The event loop writes
	// ctx.limit before every resume; the body reads it inside charge.
	ctx Ctx
}

// stopToken is the sentinel Ctx.yield panics with when the event loop
// abandons a suspended thread (a peer's body panicked): it unwinds the
// body's stack and is recovered by the coroutine wrapper, so stop() returns
// cleanly instead of leaking a suspended coroutine.
type stopToken struct{}

// start materializes the thread's coroutine. The body does not begin
// executing until the event loop's first resume.
func (t *thread) start() {
	t.ctx.reset(t, 0)
	t.resume, t.stop = iter.Pull(t.run)
}

// run is the coroutine body: the thread's imperative code runs inside it,
// suspended at every quantum expiry by Ctx.yield and continued by the event
// loop's resume. A stopToken unwind (loop abandoning the thread) is
// recovered here; any other panic propagates through resume to Run's caller.
func (t *thread) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopToken); !ok {
				panic(r)
			}
		}
	}()
	t.ctx.suspend = yield
	t.body(&t.ctx)
}

// New builds a machine.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if cfg.Cores <= 0 || cfg.Cores > 64 {
		panic("sim: cores must be in [1,64]")
	}
	m := &Machine{cfg: cfg}
	m.Space = mem.NewSpace()
	m.Space.SetCheckUAF(cfg.Check)
	m.Hier = cache.New(cfg.Cache)
	m.clocks = make([]uint64, cfg.Cores)
	m.latFence = cfg.Cache.LatFence
	m.live = make([]*thread, 0, cfg.Cores)
	m.pos = make([]int, cfg.Cores)
	m.runq = make([]int32, 0, cfg.Cores)
	m.slab = make([]thread, cfg.Cores)
	m.threads = make([]*thread, 0, cfg.Cores)
	return m
}

// Config returns the machine's configuration (with defaults applied).
func (m *Machine) Config() Config { return m.cfg }

// Reset rewinds the machine to its post-New state for cfg — clocks zeroed,
// heap empty, caches and tag sets cold, all statistics zero — reusing
// every allocation (including the thread-record slab). It reports false
// (leaving the machine untouched) when cfg needs a different geometry, in
// which case the caller must build a new machine. A reset machine is
// indistinguishable from a fresh one: trial results are bit-for-bit
// identical either way.
func (m *Machine) Reset(cfg Config) bool {
	cfg = cfg.withDefaults()
	if cfg.Cores != m.cfg.Cores || cfg.Cache != m.cfg.Cache {
		return false
	}
	if len(m.threads) != 0 {
		panic("sim: Reset with threads pending")
	}
	m.cfg = cfg
	m.Space.Reset()
	m.Space.SetCheckUAF(cfg.Check)
	// Check changes only here, and Hierarchy.Reset empties every tag set: no
	// tag made without Check, so with no generation, reaches a checked trial.
	m.Hier.Reset()
	for i := range m.clocks {
		m.clocks[i] = 0
	}
	m.retries = 0
	return true
}

// Spawn adds a thread for the next Run phase. Threads are assigned to cores
// in spawn order; spawning more threads than cores panics (the paper runs
// one thread per dedicated core). The thread record comes from the
// machine's slab, so steady-state spawning allocates nothing.
func (m *Machine) Spawn(body func(*Ctx)) {
	if len(m.threads) >= m.cfg.Cores {
		panic("sim: more threads than cores")
	}
	t := &m.slab[len(m.threads)]
	t.c = len(m.threads)
	t.m = m
	t.body = body
	m.threads = append(m.threads, t)
}

// Run executes all spawned threads to completion, then clears the thread
// list so another phase can be spawned. The entire phase — every thread body
// and every scheduling decision — runs on the calling goroutine.
//
// With one thread (e.g. the prefill phase) the body runs to completion
// inline: a lone thread can never exhaust a quantum, so not even a coroutine
// is needed. With several, each thread body becomes a resumable coroutine
// (iter.Pull) and the event loop alternates a direct coroutine transfer into
// the run queue's head with putting that thread back in order. A panic
// inside any thread body propagates to Run's caller after the remaining
// suspended bodies have been unwound.
func (m *Machine) Run() {
	if len(m.threads) == 0 {
		return
	}
	if len(m.threads) == 1 {
		t := m.threads[0]
		t.ctx.reset(t, ^uint64(0))
		if m.trace != nil {
			m.trace.ThreadBegin(t.c, m.clocks[t.c])
		}
		t.body(&t.ctx)
		if m.trace != nil {
			m.trace.ThreadEnd(t.c, m.clocks[t.c])
		}
		m.release()
		return
	}
	m.live = append(m.live[:0], m.threads...)
	m.runq = m.runq[:0]
	for i, t := range m.live {
		m.pos[t.c] = i
		m.runq = append(m.runq, int32(t.c))
		m.sift(i)
	}
	for _, t := range m.live {
		t.start()
	}
	if m.trace != nil {
		for _, t := range m.live {
			m.trace.ThreadBegin(t.c, m.clocks[t.c])
		}
	}
	defer m.unwind()
	m.loop()
	m.release()
}

// loop is the event loop: transfer execution into the run queue's head —
// the live thread with the smallest clock, ties broken by live-list
// position — with a run-until limit of the next entry's clock plus slack
// (unbounded once it runs alone). A resume returns either because the
// thread's quantum expired (it stays runnable, suspended at its yield, and
// goes back into the queue in order) or because its body finished (remove
// it; swap-removal from the live list keeps the tie-break perturbation the
// goldens pin).
func (m *Machine) loop() {
	for {
		q := m.runq
		t := &m.slab[q[0]]
		t.ctx.limit = ^uint64(0)
		if len(q) > 1 {
			t.ctx.limit = m.clocks[q[1]] + m.cfg.Slack
		}
		_, running := t.resume()
		copy(q, q[1:])
		if running {
			// The clock passed the next entry's by more than the slack, so
			// it is usually the largest and sift stops at once.
			q[len(q)-1] = int32(t.c)
			m.sift(len(q) - 1)
			continue
		}
		m.runq = q[:len(q)-1]
		if m.trace != nil {
			m.trace.ThreadEnd(t.c, m.clocks[t.c])
		}
		i := m.pos[t.c]
		last := len(m.live) - 1
		moved := m.live[last]
		m.live[i] = moved
		m.pos[moved.c] = i
		m.live = m.live[:last]
		if last == 0 {
			return
		}
		if moved != t {
			// Its live-list position fell, which can only move it forward.
			m.sift(slices.Index(m.runq, int32(moved.c)))
		}
	}
}

// sift moves the run queue's entry j toward the head, past every entry it
// runs before: a smaller clock, or an equal one and an earlier live-list
// position.
func (m *Machine) sift(j int) {
	q := m.runq
	c := q[j]
	for ; j > 0; j-- {
		p := q[j-1]
		if m.clocks[c] > m.clocks[p] || m.clocks[c] == m.clocks[p] && m.pos[c] > m.pos[p] {
			break
		}
		q[j] = p
	}
	q[j] = c
}

// release recycles the phase's thread records back into the slab: the
// per-phase references (body closure, coroutine funcs) are dropped so they
// can be collected, and the thread list is cleared for the next phase.
func (m *Machine) release() {
	for _, t := range m.threads {
		t.body = nil
		t.resume = nil
		t.stop = nil
		t.ctx.suspend = nil
	}
	m.threads = m.threads[:0]
}

// unwind runs deferred in Run. On a normal return the live set is empty and
// this is a no-op. When a thread body panics, the panic propagates through
// the event loop with the other threads still suspended mid-body; stopping
// each one resumes it with a false yield, which Ctx.yield turns into a
// stopToken unwind, so no coroutine outlives the Run that started it. (The
// panicked thread's own stop is a completed iterator's no-op.)
func (m *Machine) unwind() {
	for _, t := range m.live {
		if t.stop != nil {
			t.stop()
		}
	}
	m.live = m.live[:0]
	m.runq = m.runq[:0]
}

// Clock returns core c's cycle counter.
func (m *Machine) Clock(c int) uint64 { return m.clocks[c] }

// MaxClock returns the largest core clock — the simulated wall time.
func (m *Machine) MaxClock() uint64 {
	var max uint64
	for _, c := range m.clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// CAStats returns the Conditional Access statistics since New or Reset:
// every hardware thread's instruction counts summed, the largest tag set any
// thread held, and the hierarchy's revocations.
func (m *Machine) CAStats() core.Stats {
	s := core.Stats{Revocations: m.Hier.Revocations()}
	for t := range m.cfg.Cores {
		p := m.Hier.Port(t)
		n := p.Counts()
		s.CReads += n.CReads
		s.CReadFails += n.CReadFails
		s.CWrites += n.CWrites
		s.CWriteFails += n.CWriteFails
		s.Untagged += n.Untagged
		s.MaxTagSet = max(s.MaxTagSet, n.MaxTagSet)
	}
	return s
}

// Retries returns how many operation restarts (Ctx.CountRetry) every
// thread has made since New or Reset, across all Run phases.
func (m *Machine) Retries() uint64 { return m.retries }

// ResetClocks zeroes all core clocks. The harness calls it between the
// prefill phase and the measured phase. The restart total is kept.
func (m *Machine) ResetClocks() {
	if len(m.threads) != 0 {
		panic("sim: ResetClocks with threads pending")
	}
	for i := range m.clocks {
		m.clocks[i] = 0
	}
}

// SetTrace attaches an event sink to the machine (nil detaches). Tracing is
// strictly observational: it reads clocks the simulation already maintains
// and never charges a cycle, so a traced run's results are bit-for-bit
// identical to an untraced one. The harness attaches the sink after prefill
// (once clocks are reset) so trace timestamps share the measured run's axis.
func (m *Machine) SetTrace(s *trace.Sink) { m.trace = s }

// String summarizes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("sim.Machine{cores:%d l1:%dKB/%d-way l2:%dKB/%d-way slack:%d}",
		m.cfg.Cores, m.cfg.Cache.L1Bytes>>10, m.cfg.Cache.L1Assoc,
		m.cfg.Cache.L2Bytes>>10, m.cfg.Cache.L2Assoc, m.cfg.Slack)
}
