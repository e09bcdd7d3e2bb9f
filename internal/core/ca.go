// Package core implements Conditional Access, the paper's primary
// contribution: a small ISA extension that lets optimistic data structures
// reclaim memory immediately.
//
// Four instructions are provided (paper Section II-B):
//
//   - cread  addr  — load addr, tagging its cache line; fails (without
//     loading) if the core's accessRevokedBit is set.
//   - cwrite addr,v — store v to addr; fails if the accessRevokedBit is set
//     or addr's line is not currently tagged.
//   - untagOne addr — remove addr's line from the tag set.
//   - untagAll      — clear the tag set and the accessRevokedBit.
//
// The extension is implemented exactly as the paper's Section III sketches:
// one tag bit per L1 line and one accessRevokedBit per hardware thread, with
// no change to the coherence protocol. It subscribes to the cache model's
// invalidation events (remote invalidations, local evictions, and inclusive-
// L2 back-invalidations all revoke; M->S downgrades do not). Because the tag
// bits live on L1 lines, the tag set capacity is bounded by L1 residency:
// associativity evictions silently revoke, producing the spurious failures
// the paper discusses — and measures to be rare (reproduced by the
// associativity ablation benchmark).
//
// In "check" mode the extension additionally asserts the paper's safety
// results as executable invariants: a successful cread or cwrite must target
// a line that is live and whose allocation generation is unchanged since it
// was tagged (Theorem 6, use-after-free freedom; Theorem 7, ABA freedom).
package core

import (
	"fmt"

	"condaccess/internal/cache"
	"condaccess/internal/mem"
)

// Stats counts Conditional Access activity across all cores.
type Stats struct {
	CReads      uint64
	CReadFails  uint64
	CWrites     uint64
	CWriteFails uint64 // includes failures due to an untagged target line
	Untagged    uint64 // cwrite failures specifically due to an untagged line
	Revocations uint64 // accessRevokedBit transitions caused by invalidations
	SelfEvicts  uint64 // revocations caused by this core's own L1 evictions
	MaxTagSet   int    // high-water mark of any core's tag set
}

// coreState is one hardware thread's tag set and accessRevokedBit. The tag
// set is a line-indexed era-stamped table rather than a list: line li is
// tagged iff stamp[li] == era. Every operation that touches it — the tag
// membership probe on each cread/cwrite, untagOne, and the LineInvalidated
// event the cache fires on every eviction — is O(1), and untagAll (once per
// data-structure operation) retires the whole set by bumping era, no
// clearing pass. The earlier representation, a slice scanned linearly, made
// each cread O(tag set): a tree traversal tagging d lines paid O(d²)
// membership probes per operation, which profiles showed as the simulator's
// single hottest non-cache component.
type coreState struct {
	// stamp[li] == era iff the line with index li is tagged. A stamp value of
	// 0 never matches (era starts at 1 and only grows), so fresh table growth
	// needs no initialization.
	stamp []uint64
	// gen[li] is the allocation generation recorded when li was tagged,
	// meaningful only while stamp[li] == era. The check-mode invariants
	// (Theorems 6 and 7) compare it against the line's current generation.
	gen     []uint32
	era     uint64
	count   int // live tag count: TagSetSize and the MaxTagSet high-water
	revoked bool
	// port is the hardware thread's L1 port: a cread or cwrite that hits
	// its L1 is served inline, without a call into the hierarchy.
	port cache.Port
}

// tagged reports whether line index li is in the tag set.
func (cs *coreState) tagged(li uint64) bool {
	return li < uint64(len(cs.stamp)) && cs.stamp[li] == cs.era
}

// tag inserts line index li (not currently tagged) with generation g.
func (cs *coreState) tag(li uint64, g uint32) {
	if li >= uint64(len(cs.stamp)) {
		cs.growTo(li)
	}
	cs.stamp[li] = cs.era
	cs.gen[li] = g
	cs.count++
}

// untag removes line index li, which the caller has verified is tagged.
func (cs *coreState) untag(li uint64) {
	cs.stamp[li] = 0
	cs.count--
}

// untagAll empties the tag set: bumping era instantly invalidates every
// stamp. The tables are line-indexed, so nothing needs clearing.
func (cs *coreState) untagAll() {
	cs.era++
	cs.count = 0
}

// growTo extends the stamp/gen tables to cover line index li. Growth is
// amortized: the simulated heap only ever grows, so after warm-up this is
// never hit again.
func (cs *coreState) growTo(li uint64) {
	n := uint64(64)
	for n <= li {
		n *= 2
	}
	ns := make([]uint64, n)
	copy(ns, cs.stamp)
	ng := make([]uint32, n)
	copy(ng, cs.gen)
	cs.stamp = ns
	cs.gen = ng
}

// Extension is the Conditional Access hardware extension for a simulated
// machine. Create it with New, wire it as the cache hierarchy's Listener,
// then Attach the hierarchy and heap.
type Extension struct {
	h       *cache.Hierarchy
	space   *mem.Space
	cores   []coreState
	stats   Stats
	latFlag uint64 // cached Params().LatFlagCheck: every instruction pays it

	// Check enables the executable safety invariants (Theorems 6 and 7).
	Check bool
}

// New creates the extension for nCores hardware threads. The returned value
// implements cache.Listener and must be registered with the hierarchy at
// construction; call Attach afterwards.
func New(nCores int) *Extension {
	e := &Extension{cores: make([]coreState, nCores)}
	for i := range e.cores {
		e.cores[i].era = 1
	}
	return e
}

// Attach connects the extension to the hierarchy and heap it observes.
func (e *Extension) Attach(h *cache.Hierarchy, space *mem.Space) {
	e.h = h
	e.space = space
	e.latFlag = h.Params().LatFlagCheck
	for i := range e.cores {
		e.cores[i].port = h.Port(i)
	}
}

// Reset clears every core's tag set and accessRevokedBit and zeroes the
// statistics, returning the extension to its post-New state (the stamp-table
// capacity is kept; retiring the old tags is an era bump, not a clear).
func (e *Extension) Reset() {
	for i := range e.cores {
		e.cores[i].untagAll()
		e.cores[i].revoked = false
	}
	e.stats = Stats{}
}

// Stats returns a copy of the accumulated statistics.
func (e *Extension) Stats() Stats { return e.stats }

// LineInvalidated implements cache.Listener: if the invalidated line is
// tagged at core, the core's accessRevokedBit is set and the tag discarded
// (the tag bit physically lives on the departing line).
func (e *Extension) LineInvalidated(core int, line uint64) {
	cs := &e.cores[core]
	li := line / mem.LineBytes
	if !cs.tagged(li) {
		return
	}
	cs.untag(li)
	if !cs.revoked {
		cs.revoked = true
		e.stats.Revocations++
	}
}

// Revoked reports core's accessRevokedBit.
func (e *Extension) Revoked(core int) bool { return e.cores[core].revoked }

// RevokeThread unconditionally sets core's accessRevokedBit and discards its
// tags. The simulator calls it on a context switch: the paper (Section III)
// has the OS revoke a switched-out thread rather than track invalidations on
// its behalf, which is what makes Conditional Access usable in multiuser
// systems.
func (e *Extension) RevokeThread(core int) {
	cs := &e.cores[core]
	cs.untagAll()
	if !cs.revoked {
		cs.revoked = true
		e.stats.Revocations++
	}
}

// TagSetSize returns the current number of tagged lines at core.
func (e *Extension) TagSetSize(core int) int { return e.cores[core].count }

// CRead executes a cread by core at addr. On success it returns the loaded
// value, the access latency, and ok=true; on failure (accessRevokedBit set)
// it returns only the flag-check latency and ok=false, having performed no
// memory access.
func (e *Extension) CRead(core int, addr mem.Addr) (val uint64, lat uint64, ok bool) {
	cs := &e.cores[core]
	if cs.revoked {
		e.stats.CReadFails++
		return 0, e.latFlag, false
	}
	// The load may evict another tagged line of this core, setting the
	// revoked bit; per the paper's atomicity, this cread still succeeds (its
	// flag check happened first) and the next conditional access fails.
	lat = cs.port.HitLatency()
	if !cs.port.ReadHit(addr) {
		lat = e.h.Read(core, addr)
	}
	lat += e.latFlag
	li := addr / mem.LineBytes
	v, gen := e.space.ReadGen(addr)
	if cs.tagged(li) {
		if e.Check && cs.gen[li] != gen {
			panic(fmt.Sprintf("core: cread at %#x succeeded across reallocation (gen %d -> %d): Theorem 7 violated", addr, cs.gen[li], gen))
		}
	} else {
		cs.tag(li, gen)
		if cs.count > e.stats.MaxTagSet {
			e.stats.MaxTagSet = cs.count
		}
	}
	if e.Check && !e.space.Live(addr) {
		panic(fmt.Sprintf("core: cread at %#x succeeded on a freed line: Theorem 6 violated", addr))
	}
	e.stats.CReads++
	return v, lat, true
}

// CWrite executes a cwrite by core of v to addr. It fails — performing no
// memory access — if the accessRevokedBit is set or addr's line is not in
// the tag set (the paper requires a prior cread precisely to keep the
// high-latency fill out of the store path; see Section II-B).
func (e *Extension) CWrite(core int, addr mem.Addr, v uint64) (lat uint64, ok bool) {
	cs := &e.cores[core]
	if cs.revoked {
		e.stats.CWriteFails++
		return e.latFlag, false
	}
	li := addr / mem.LineBytes
	if !cs.tagged(li) {
		e.stats.CWriteFails++
		e.stats.Untagged++
		return e.latFlag, false
	}
	if e.Check {
		if gen := e.space.Gen(addr); cs.gen[li] != gen {
			panic(fmt.Sprintf("core: cwrite at %#x succeeded across reallocation (gen %d -> %d): Theorem 7 violated", addr, cs.gen[li], gen))
		}
		if !e.space.Live(addr) {
			panic(fmt.Sprintf("core: cwrite at %#x succeeded on a freed line: Theorem 6 violated", addr))
		}
	}
	// The line is tagged, hence still resident in this L1 (tags live on
	// lines): the write is at worst an S->M upgrade, never a fill.
	lat = cs.port.HitLatency()
	if !cs.port.WriteHit(addr) {
		lat = e.h.Write(core, addr)
	}
	lat += e.latFlag
	e.space.Write(addr, v)
	e.stats.CWrites++
	return lat, true
}

// UntagOne removes addr's line from core's tag set. It performs no memory
// access and cannot fail; untagging an untagged line is a no-op.
func (e *Extension) UntagOne(core int, addr mem.Addr) (lat uint64) {
	cs := &e.cores[core]
	if li := addr / mem.LineBytes; cs.tagged(li) {
		cs.untag(li)
	}
	return e.latFlag
}

// UntagAll clears core's tag set and accessRevokedBit.
func (e *Extension) UntagAll(core int) (lat uint64) {
	cs := &e.cores[core]
	cs.untagAll()
	cs.revoked = false
	return e.latFlag
}
