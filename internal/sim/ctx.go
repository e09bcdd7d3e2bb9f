package sim

import (
	"condaccess/internal/cache"
	"condaccess/internal/core"
	"condaccess/internal/mem"
	"condaccess/internal/trace"
)

// Ctx is a simulated thread's execution context. All shared-memory accesses,
// Conditional Access instructions, fences, allocation, and local work go
// through it so that every action is charged simulated cycles and serialized
// by the scheduler. A Ctx is only valid inside the body passed to
// Machine.Spawn, for the duration of that body's Run phase: the record lives
// in the machine's thread slab and is reused by later phases.
//
// Ctx executes the Conditional Access instructions on its own port and
// implements core.Accessor, so core.TryLock and core.Unlock work on it.
type Ctx struct {
	tid   int // the thread's core, which is its hardware thread id
	m     *Machine
	clock *uint64 // &m.clocks[tid]: charge is the hottest path in the simulator
	limit uint64  // run-until quantum limit; the event loop rewrites it before every resume
	// port is this thread's L1 port: every access tries its inlined hit
	// check before calling into the hierarchy, and it holds the thread's
	// Conditional Access tags, accessRevokedBit and instruction counts.
	port cache.Port
	// The machine's LatFlagCheck, which every Conditional Access instruction
	// pays, and Check: the instructions read neither machine nor config.
	latFlag uint64
	check   bool
	// suspend transfers control back to the event loop at a quantum expiry
	// (the iter.Pull yield function of this thread's coroutine). Nil on the
	// single-thread fast path, where the limit is unbounded and yield is
	// unreachable.
	suspend func(struct{}) bool
	zeroRun uint64 // consecutive zero-cycle charges (watchdog)

	// Pause-attribution state (BeginPause/EndPause): cycles this thread has
	// spent inside reclamation-pause brackets, so the harness can attribute
	// an operation's latency to an absorbed scan/free pass.
	pauseDepth int
	pauseMark  uint64
	pauseTotal uint64

	// retryCount counts this thread's own operation restarts (CountRetry)
	// in this Run phase. The machine-wide total is shared across threads:
	// a per-op delta of it would tag an operation as retried whenever any
	// concurrent thread restarted inside its window, so attribution reads
	// this thread-local counter.
	retryCount uint64
}

// reset rewinds this context for a fresh thread body — the per-phase
// initialization newCtx used to allocate, now a field reset of the slab
// record.
func (c *Ctx) reset(t *thread, limit uint64) {
	c.tid = t.c
	c.m = t.m
	c.clock = &t.m.clocks[t.c]
	c.limit = limit
	c.port = t.m.Hier.Port(t.c)
	c.latFlag = t.m.cfg.Cache.LatFlagCheck
	c.check = t.m.cfg.Check
	c.suspend = nil
	c.zeroRun = 0
	c.pauseDepth = 0
	c.pauseMark = 0
	c.pauseTotal = 0
	c.retryCount = 0
}

// zeroChargeLimit bounds consecutive zero-latency operations. A simulated
// thread that loops without advancing its clock would never yield and would
// silently wedge the whole machine; failing loudly points at the zero-cost
// loop instead.
const zeroChargeLimit = 1 << 26

// charge advances this core's clock by lat cycles and hands off to the next
// runnable thread if the quantum is exhausted. It runs after the access has
// taken effect, so accesses are atomic at their issue time. The body is
// shaped to stay within the inlining budget of every Ctx memory operation:
// the common case (nonzero charge, quantum not exhausted) is three
// instructions, and everything else lives in chargeSlow.
func (c *Ctx) charge(lat uint64) {
	*c.clock += lat
	if lat != 0 && *c.clock <= c.limit {
		c.zeroRun = 0
	} else {
		c.chargeSlow(lat)
	}
}

// chargeSlow handles the zero-latency watchdog and the quantum-expiry
// handoff.
func (c *Ctx) chargeSlow(lat uint64) {
	if lat == 0 {
		if c.zeroRun++; c.zeroRun > zeroChargeLimit {
			panic("sim: thread looped >2^26 times without consuming simulated time")
		}
	} else {
		c.zeroRun = 0
	}
	if *c.clock > c.limit {
		c.yield()
	}
}

// yield is the quantum-expiry slow path: suspend this thread's coroutine,
// transferring control back to the event loop (Machine.loop), which picks
// the next runnable thread and transfers into it. By the time a later pick
// resumes this thread, the loop has already written its fresh run-until
// limit into c.limit. A false return means the loop is unwinding (a peer's
// body panicked): raise the stop sentinel so this body's stack unwinds
// through the coroutine wrapper.
func (c *Ctx) yield() {
	if !c.suspend(struct{}{}) {
		panic(stopToken{})
	}
}

// ThreadID returns this thread's position in its Run phase's spawn order,
// which is its core number.
func (c *Ctx) ThreadID() int { return c.tid }

// Clock returns this core's current cycle count.
func (c *Ctx) Clock() uint64 { return *c.clock }

// Machine returns the machine this context runs on.
func (c *Ctx) Machine() *Machine { return c.m }

// Read performs an ordinary load. Each access tries its port's hit check,
// which inlines here, and calls into the hierarchy only when it declines.
func (c *Ctx) Read(a mem.Addr) uint64 {
	lat := c.port.HitLatency()
	if !c.port.ReadHit(a) {
		lat = c.m.Hier.Read(c.tid, a)
	}
	v := c.m.Space.Read(a)
	c.charge(lat)
	return v
}

// Write performs an ordinary store.
func (c *Ctx) Write(a mem.Addr, v uint64) {
	lat := c.port.HitLatency()
	if !c.port.WriteHit(a) {
		lat = c.m.Hier.Write(c.tid, a)
	}
	c.m.Space.Write(a, v)
	c.charge(lat)
}

// CAS performs an atomic compare-and-swap, returning true on success. Like
// hardware cmpxchg, it acquires the line exclusively whether or not the
// comparison succeeds.
func (c *Ctx) CAS(a mem.Addr, old, new uint64) bool {
	lat := c.port.HitLatency()
	if !c.port.WriteHit(a) {
		lat = c.m.Hier.Write(c.tid, a)
	}
	cur := c.m.Space.Read(a)
	ok := cur == old
	if ok {
		c.m.Space.Write(a, new)
	}
	c.charge(lat + 1)
	return ok
}

// FetchAdd atomically adds d to the word at a and returns the previous value.
func (c *Ctx) FetchAdd(a mem.Addr, d uint64) uint64 {
	lat := c.port.HitLatency()
	if !c.port.WriteHit(a) {
		lat = c.m.Hier.Write(c.tid, a)
	}
	v := c.m.Space.Read(a)
	c.m.Space.Write(a, v+d)
	c.charge(lat + 1)
	return v
}

// CRead executes the Conditional Access cread instruction: on success it
// returns the loaded value with the line tagged; ok=false means the
// accessRevokedBit was set and no load occurred — the operation must
// UntagAll and restart.
func (c *Ctx) CRead(a mem.Addr) (v uint64, ok bool) {
	n := c.port.Counts()
	if c.port.Revoked() {
		n.CReadFails++
		c.charge(c.latFlag)
		return 0, false
	}
	// The load may evict another tagged line of this thread, setting the
	// revoked bit; per the paper's atomicity, this cread still succeeds (its
	// flag check happened first) and the next conditional access fails.
	lat := c.port.HitLatency()
	if !c.port.ReadHit(a) {
		lat = c.m.Hier.Read(c.tid, a)
	}
	fresh := !c.port.Probe(a)
	if fresh {
		c.port.Tag(a)
		n.MaxTagSet = max(n.MaxTagSet, c.port.TagCount())
	}
	// The Check-mode assertions run before the heap read, whose own
	// use-after-free check would otherwise report a freed line first.
	if c.check {
		core.CheckCRead(&c.port, c.m.Space, a, fresh)
	}
	v = c.m.Space.Read(a)
	n.CReads++
	c.charge(lat + c.latFlag)
	return v, true
}

// CWrite executes the cwrite instruction: the store happens only if the
// accessRevokedBit is clear and a's line is tagged (i.e. previously cread).
// A failed cwrite performs no memory access: the paper requires the prior
// cread precisely to keep the high-latency fill out of the store path (see
// Section II-B).
func (c *Ctx) CWrite(a mem.Addr, v uint64) bool {
	n := c.port.Counts()
	if c.port.Revoked() {
		n.CWriteFails++
		c.charge(c.latFlag)
		return false
	}
	if !c.port.Probe(a) {
		n.CWriteFails++
		n.Untagged++
		c.charge(c.latFlag)
		return false
	}
	if c.check {
		core.CheckCWrite(&c.port, c.m.Space, a)
	}
	// The line is tagged, hence still resident in this L1 (tags live on
	// lines): the write is at worst an S->M upgrade, never a fill.
	lat := c.port.HitLatency()
	if !c.port.WriteHit(a) {
		lat = c.m.Hier.Write(c.tid, a)
	}
	c.m.Space.Write(a, v)
	n.CWrites++
	c.charge(lat + c.latFlag)
	return true
}

// chargeZero is the zero-latency charge: the clock does not move, so the
// quantum cannot expire and only the watchdog needs feeding. Small enough to
// inline where charge's general body would not.
func (c *Ctx) chargeZero() {
	if c.zeroRun++; c.zeroRun > zeroChargeLimit {
		panic("sim: thread looped >2^26 times without consuming simulated time")
	}
}

// UntagOne removes a's line from this thread's tag set. It performs no
// memory access and cannot fail; untagging an untagged line is a no-op.
//
// Untag latency is LatFlagCheck, which is zero in the default latency model;
// a zero charge can never exhaust a quantum, so the frequent zero case feeds
// the watchdog inline instead of paying the full charge path.
func (c *Ctx) UntagOne(a mem.Addr) {
	c.port.Untag(a)
	if c.latFlag != 0 {
		c.charge(c.latFlag)
	} else {
		c.chargeZero()
	}
}

// UntagAll clears the tag set and the accessRevokedBit. Zero charges are
// handled as in UntagOne.
func (c *Ctx) UntagAll() {
	c.port.UntagAll()
	if c.latFlag != 0 {
		c.charge(c.latFlag)
	} else {
		c.chargeZero()
	}
}

// Revoked reports this thread's accessRevokedBit (diagnostic; real code
// learns of revocation through failing conditional accesses).
func (c *Ctx) Revoked() bool { return c.port.Revoked() }

// Fence models a full memory fence / store buffer drain. The reservation-
// based reclamation schemes (hp, he, ibr) pay one per protected read; this
// is the per-read overhead the paper attributes their slowness to.
func (c *Ctx) Fence() { c.charge(c.m.latFence) }

// Work charges n cycles of local computation.
func (c *Ctx) Work(n uint64) { c.charge(n) }

// BeginPause opens a pause bracket: until the matching EndPause, every cycle
// charged to this thread counts as pause time. The reclamation schemes
// bracket their scan/free passes with it, which is how the harness knows an
// operation's latency was spent absorbing a batch free rather than doing
// useful work — the paper's tail-latency critique made attributable.
// Brackets nest; only the outermost pair measures. Purely observational:
// no cycles are charged and simulated behavior is unchanged.
func (c *Ctx) BeginPause() {
	if c.pauseDepth == 0 {
		c.pauseMark = *c.clock
		if s := c.m.trace; s != nil {
			s.PauseBegin(c.tid, *c.clock)
		}
	}
	c.pauseDepth++
}

// EndPause closes the innermost pause bracket.
func (c *Ctx) EndPause() {
	if c.pauseDepth == 0 {
		panic("sim: EndPause without BeginPause")
	}
	if c.pauseDepth--; c.pauseDepth == 0 {
		c.pauseTotal += *c.clock - c.pauseMark
		if s := c.m.trace; s != nil {
			s.PauseEnd(c.tid, *c.clock)
		}
	}
}

// PauseCycles returns the cycles this thread has spent inside closed pause
// brackets. The harness samples it before and after each operation; a
// nonzero delta means the operation absorbed a reclamation pause of exactly
// that many cycles.
func (c *Ctx) PauseCycles() uint64 { return c.pauseTotal }

// CountRetry records one operation restart by this thread (a failed
// conditional access or a validation failure forcing the operation back to
// the top). The data structures call it at every restart; it is the only
// restart counter, feeding both this thread's RetryCount and the machine's
// Retries total. Purely observational: no cycles are charged.
func (c *Ctx) CountRetry() {
	c.retryCount++
	c.m.retries++
	if s := c.m.trace; s != nil {
		s.Retry(c.tid, *c.clock)
	}
}

// TraceScan records one reclamation scan's outcome — scheme name, nodes
// freed, nodes still pinned by peers — on the machine's event sink. The
// reclaimers call it at the end of each scan pass, inside the pause bracket,
// so the instant lands inside the pause slice it explains. No-op when
// tracing is off.
func (c *Ctx) TraceScan(scheme string, freed, kept int) {
	if s := c.m.trace; s != nil {
		s.Scan(c.tid, *c.clock, scheme, freed, kept)
	}
}

// Trace returns the machine's attached event sink — nil when tracing is
// off, which is itself a valid (no-op) sink value. The harness uses it to
// emit op begin/end events without threading a sink through every call.
func (c *Ctx) Trace() *trace.Sink { return c.m.trace }

// RetryCount returns how many times this thread's operations have
// restarted. Like PauseCycles, the harness deltas it around each operation
// to attribute that operation's latency.
func (c *Ctx) RetryCount() uint64 { return c.retryCount }

// PreemptCycles is the modeled cost of an OS context switch.
const PreemptCycles = 2000

// Preempt models an OS context switch of this thread: the paper's Section
// III has the OS set the switched-out thread's accessRevokedBit instead of
// tracking invalidations on its behalf, so the thread's next conditional
// access fails and its operation restarts. Charges PreemptCycles.
func (c *Ctx) Preempt() {
	c.port.Revoke()
	c.charge(PreemptCycles)
}

// AllocNode allocates a 64-byte node from the simulated heap.
func (c *Ctx) AllocNode() mem.Addr {
	a := c.m.Space.AllocNode()
	c.charge(DefaultAllocCycles)
	return a
}

// Free returns a node to the simulated heap. The paper's reclaimer rule —
// a thread must write to a node before freeing it — is the caller's
// responsibility and is validated in Check mode.
func (c *Ctx) Free(a mem.Addr) {
	c.m.Space.FreeNode(a)
	c.charge(DefaultFreeCycles)
}
