// Package cache models the simulated memory hierarchy: per-core private L1
// data caches and a shared inclusive L2 with an in-cache directory running an
// MSI coherence protocol.
//
// This is the Graphite-equivalent substrate the paper prototypes Conditional
// Access on (Section V: "directory based MSI cache coherency protocol with a
// private 32K L1 and a shared inclusive 256K L2 cache", 64-byte lines).
//
// The hierarchy is a timing model: data lives in the simulated heap (package
// mem); the caches track line state, replacement, and sharers, and report
// the latency of each access. Keeping data out of the cache model is sound
// because the simulator executes exactly one memory access at a time, so
// there is always a single authoritative copy of every word.
//
// The hierarchy also holds the Conditional Access state the paper puts in
// the L1 (Section III): each hardware thread's tag bits on L1 lines and its
// accessRevokedBit, reached through the thread's Port. A tag leaves with its
// line: every invalidation, eviction and inclusive-L2 back-invalidation of
// an L1 copy, and every write by an SMT sibling, drops the tag and sets the
// bit. M->S downgrades revoke nothing. Package core builds the four
// instructions on this state.
package cache

import "fmt"

// Params configures cache geometry and the latency model. All latencies are
// in simulated core cycles.
type Params struct {
	// Cores is the number of hardware threads. With ThreadsPerCore > 1,
	// consecutive hardware threads share one physical core and its L1 (the
	// paper's SMT discussion in Section III): each hyperthread keeps its own
	// tag state, a hyperthread's write revokes its siblings' tags on that
	// line, and losing a line from the shared L1 revokes every hyperthread
	// that had it tagged.
	Cores int
	// ThreadsPerCore is the SMT width; 0 or 1 means no SMT.
	ThreadsPerCore int

	L1Bytes int // private L1 data cache capacity
	L1Assoc int // L1 associativity (bounds the Conditional Access tagSet)
	L2Bytes int // shared inclusive L2 capacity
	L2Assoc int

	// Latency model. An access pays the sum of the components it exercises.
	LatL1Hit     uint64 // load-to-use on an L1 hit; includes issue cost
	LatL2Hit     uint64 // additional cost of an L1 miss served by the L2
	LatMem       uint64 // additional cost of an L2 miss served by DRAM
	LatRemoteFwd uint64 // additional cost when a remote L1 holds the line Modified
	LatInv       uint64 // additional cost of invalidating remote sharers
	LatDir       uint64 // directory lookup cost on any L1 miss or upgrade
	LatFence     uint64 // full fence / store buffer drain (hp, he, ibr pay this)
	LatFlagCheck uint64 // checking the Conditional Access flag register
	LatUpgrade   uint64 // S->M upgrade request when no sharers need invalidating
}

// DefaultParams mirrors the paper's Graphite configuration: 32K/8-way L1,
// 256K/16-way shared inclusive L2, 64-byte lines. Latencies model an
// out-of-order core the way Graphite's timing model does: L1 hits are nearly
// free (they pipeline behind other work), the conditional-access flag check
// is hidden entirely (it is a register test), and the costs that matter are
// L2/DRAM fills, remote forwards, invalidations, and fences.
func DefaultParams(cores int) Params {
	return Params{
		Cores:        cores,
		L1Bytes:      32 << 10,
		L1Assoc:      8,
		L2Bytes:      256 << 10,
		L2Assoc:      16,
		LatL1Hit:     1,
		LatL2Hit:     12,
		LatMem:       120,
		LatRemoteFwd: 40,
		LatInv:       20,
		LatDir:       6,
		LatFence:     20,
		LatFlagCheck: 0,
		LatUpgrade:   10,
	}
}

// SMTWidth returns the effective threads-per-core (at least 1).
func (p Params) SMTWidth() int {
	if p.ThreadsPerCore <= 1 {
		return 1
	}
	return p.ThreadsPerCore
}

// L1Count returns the number of physical L1 caches.
func (p Params) L1Count() int { return p.Cores / p.SMTWidth() }

// Check reports whether the geometry is consistent: at most 64 cores and 64
// ways (a directory sharer set and a set's empty-way mask are one word
// each), positive sizes, whole sets, and power-of-two set counts (the caches
// index sets by masking).
// Everything is validated up front, before any cache is allocated, so bad
// geometry — including a sweep's Cache override — fails immediately.
func (p Params) Check() error {
	if p.Cores <= 0 || p.Cores > 64 {
		return fmt.Errorf("cache: core count %d must be in [1,64]", p.Cores)
	}
	if p.Cores%p.SMTWidth() != 0 {
		return fmt.Errorf("cache: cores %d must be a multiple of ThreadsPerCore %d", p.Cores, p.SMTWidth())
	}
	if p.L1Bytes <= 0 || p.L1Assoc <= 0 || p.L1Bytes%(p.L1Assoc*lineBytes) != 0 {
		return fmt.Errorf("cache: bad L1 geometry %dB/%d-way", p.L1Bytes, p.L1Assoc)
	}
	if p.L2Bytes <= 0 || p.L2Assoc <= 0 || p.L2Bytes%(p.L2Assoc*lineBytes) != 0 {
		return fmt.Errorf("cache: bad L2 geometry %dB/%d-way", p.L2Bytes, p.L2Assoc)
	}
	if p.L1Assoc > 64 || p.L2Assoc > 64 {
		return fmt.Errorf("cache: L1 %d-way and L2 %d-way: at most 64 ways per set", p.L1Assoc, p.L2Assoc)
	}
	if sets := p.L1Bytes / (p.L1Assoc * lineBytes); sets&(sets-1) != 0 {
		return fmt.Errorf("cache: L1 set count %d must be a power of two", sets)
	}
	if sets := p.L2Bytes / (p.L2Assoc * lineBytes); sets&(sets-1) != 0 {
		return fmt.Errorf("cache: L2 set count %d must be a power of two", sets)
	}
	return nil
}

// Validate panics if the geometry is inconsistent (see Check).
func (p Params) Validate() {
	if err := p.Check(); err != nil {
		panic(err)
	}
}
