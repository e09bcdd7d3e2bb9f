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
// no change to the coherence protocol. That state lives in the cache model
// (package cache), reached through each thread's cache.Port, and the
// hierarchy revokes it itself: remote invalidations, local evictions,
// inclusive-L2 back-invalidations and SMT sibling writes all revoke; M->S
// downgrades do not. Because the tag bits live on L1 lines, the tag set
// capacity is bounded by L1 residency: associativity evictions silently
// revoke, producing the spurious failures the paper discusses — and
// measures to be rare (reproduced by the associativity ablation benchmark).
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
	Revocations uint64 // accessRevokedBit clear-to-set transitions (cache.Hierarchy.Revocations)
	SelfEvicts  uint64 // revocations caused by this core's own L1 evictions
	MaxTagSet   int    // high-water mark of any core's tag set
}

// Extension is the Conditional Access hardware extension for a simulated
// machine: the four instructions over the tag state the cache hierarchy
// keeps, their statistics, and the Check-mode theorems.
type Extension struct {
	h       *cache.Hierarchy
	space   *mem.Space
	ports   []cache.Port // one per hardware thread: its L1 and its tags
	stats   Stats        // every count but Revocations, which the hierarchy keeps
	latFlag uint64       // cached Params().LatFlagCheck: every instruction pays it

	// Check enables the executable safety invariants (Theorems 6 and 7).
	Check bool
}

// New creates the extension for every hardware thread of h, reading and
// writing the heap space.
func New(h *cache.Hierarchy, space *mem.Space) *Extension {
	e := &Extension{h: h, space: space, latFlag: h.Params().LatFlagCheck}
	e.ports = make([]cache.Port, h.Params().Cores)
	for i := range e.ports {
		e.ports[i] = h.Port(i)
	}
	return e
}

// Reset zeroes the statistics. The tags and accessRevokedBits belong to the
// hierarchy, whose own Reset clears them.
func (e *Extension) Reset() { e.stats = Stats{} }

// Stats returns a copy of the accumulated statistics.
func (e *Extension) Stats() Stats {
	s := e.stats
	s.Revocations = e.h.Revocations()
	return s
}

// CRead executes a cread by core at addr. On success it returns the loaded
// value, the access latency, and ok=true; on failure (accessRevokedBit set)
// it returns only the flag-check latency and ok=false, having performed no
// memory access.
func (e *Extension) CRead(core int, addr mem.Addr) (val uint64, lat uint64, ok bool) {
	p := &e.ports[core]
	if p.Revoked() {
		e.stats.CReadFails++
		return 0, e.latFlag, false
	}
	// The load may evict another tagged line of this core, setting the
	// revoked bit; per the paper's atomicity, this cread still succeeds (its
	// flag check happened first) and the next conditional access fails.
	lat = p.HitLatency()
	if !p.ReadHit(addr) {
		lat = e.h.Read(core, addr)
	}
	lat += e.latFlag
	v, gen := e.space.ReadGen(addr)
	if p.Probe(addr) {
		if e.Check && p.TagGen(addr) != gen {
			panic(fmt.Sprintf("core: cread at %#x succeeded across reallocation (gen %d -> %d): Theorem 7 violated", addr, p.TagGen(addr), gen))
		}
	} else {
		p.Tag(addr, gen)
		if n := p.TagCount(); n > e.stats.MaxTagSet {
			e.stats.MaxTagSet = n
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
	p := &e.ports[core]
	if p.Revoked() {
		e.stats.CWriteFails++
		return e.latFlag, false
	}
	if !p.Probe(addr) {
		e.stats.CWriteFails++
		e.stats.Untagged++
		return e.latFlag, false
	}
	if e.Check {
		if gen := e.space.Gen(addr); p.TagGen(addr) != gen {
			panic(fmt.Sprintf("core: cwrite at %#x succeeded across reallocation (gen %d -> %d): Theorem 7 violated", addr, p.TagGen(addr), gen))
		}
		if !e.space.Live(addr) {
			panic(fmt.Sprintf("core: cwrite at %#x succeeded on a freed line: Theorem 6 violated", addr))
		}
	}
	// The line is tagged, hence still resident in this L1 (tags live on
	// lines): the write is at worst an S->M upgrade, never a fill.
	lat = p.HitLatency()
	if !p.WriteHit(addr) {
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
	e.ports[core].Untag(addr)
	return e.latFlag
}

// UntagAll clears core's tag set and accessRevokedBit.
func (e *Extension) UntagAll(core int) (lat uint64) {
	e.ports[core].UntagAll()
	return e.latFlag
}
