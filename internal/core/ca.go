// Package core defines Conditional Access, the paper's primary
// contribution: a small ISA extension that lets optimistic data structures
// reclaim memory immediately.
//
// Four instructions are provided (paper Section II-B):
//
//   - cread  addr  — load addr, tagging its cache line; fails (without
//     loading) if the thread's accessRevokedBit is set.
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
// The simulator's thread context (sim.Ctx) executes the instructions on its
// thread's port, as it does loads and stores, and counts them there. This
// package holds what surrounds them: their statistics (Stats), the lock
// helpers written against them (TryLock, Unlock), and, for Check mode, the
// paper's safety results as executable invariants: a successful cread or
// cwrite must target a line that is live and whose allocation generation is
// unchanged since it was tagged (Theorem 6, use-after-free freedom; Theorem
// 7, ABA freedom).
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

// CheckCRead asserts Theorems 7 and 6 for a cread of addr that succeeded
// on the thread whose port is p. A cread that tagged the line (fresh)
// records the line's allocation generation on the tag; a cread of a line
// already tagged must find the generation it recorded.
func CheckCRead(p *cache.Port, space *mem.Space, addr mem.Addr, fresh bool) {
	gen := space.Gen(addr)
	if fresh {
		p.SetTagGen(addr, gen)
	} else if p.TagGen(addr) != gen {
		panic(fmt.Sprintf("core: cread at %#x succeeded across reallocation (gen %d -> %d): Theorem 7 violated", addr, p.TagGen(addr), gen))
	}
	if !space.Live(addr) {
		panic(fmt.Sprintf("core: cread at %#x succeeded on a freed line: Theorem 6 violated", addr))
	}
}

// CheckCWrite asserts Theorems 7 and 6 for a cwrite of addr that found its
// line tagged on the thread whose port is p, before it stores.
func CheckCWrite(p *cache.Port, space *mem.Space, addr mem.Addr) {
	if gen := space.Gen(addr); p.TagGen(addr) != gen {
		panic(fmt.Sprintf("core: cwrite at %#x succeeded across reallocation (gen %d -> %d): Theorem 7 violated", addr, p.TagGen(addr), gen))
	}
	if !space.Live(addr) {
		panic(fmt.Sprintf("core: cwrite at %#x succeeded on a freed line: Theorem 6 violated", addr))
	}
}
