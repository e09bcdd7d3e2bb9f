// Package smr implements the safe memory reclamation schemes the paper
// benchmarks Conditional Access against (Section V): a leaky baseline
// (none), epoch-based RCU (rcu), quiescent-state-based reclamation (qsbr),
// interval-based reclamation in its 2GEIBR variant (ibr), hazard pointers
// (hp), and hazard eras (he).
//
// All reclamation metadata that real implementations keep in shared memory —
// the global epoch/era word, per-thread reservations, hazard slots — lives
// in the simulated heap, one cache line per thread, so the coherence traffic
// these schemes generate (the fences and remote reads the paper blames for
// hp/he/ibr's slowness) is faithfully charged by the cache model. Retired
// lists are reclaimer-local bookkeeping, modeled with a small cycle charge
// per operation.
//
// Parameter defaults follow the paper: reclamation is attempted every 30
// retires and the epoch/era advances every 150 allocations.
package smr

import (
	"fmt"

	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// Node-layout contract shared with the data structures: the last word of
// every 64-byte node holds the birth era for the era-based schemes.
const (
	// BirthEraOff is the byte offset of the birth-era word in a node line.
	BirthEraOff = 7 * mem.WordBytes
	// MaxSlots is the number of protection slots every scheme must support
	// (the deepest requirement is three: grandparent/parent/leaf in the BST
	// and pred/curr/next rotation in the list).
	MaxSlots = 4
)

// inf marks an inactive reservation.
const inf = ^uint64(0)

// Options tunes a reclamation scheme. The zero value selects the paper's
// defaults.
type Options struct {
	// ReclaimEvery is the reclamation frequency: a scan/free pass runs after
	// this many retires by a thread. Paper default: 30.
	ReclaimEvery int
	// EpochEvery is the epoch frequency: the global epoch/era advances after
	// this many allocations by a thread. Paper default: 150.
	EpochEvery int
}

func (o Options) withDefaults() Options {
	if o.ReclaimEvery == 0 {
		o.ReclaimEvery = 30
	}
	if o.EpochEvery == 0 {
		o.EpochEvery = 150
	}
	return o
}

// Reclaimer is the hook interface the guarded (non-Conditional-Access) data
// structure variants are written against.
//
// The contract, per operation:
//
//	BeginOp(c)
//	... traversal: Protect(c, slot, node, src) before first dereferencing
//	    node, where src is the address of the pointer field node was loaded
//	    from (0 for immortal roots). false means restart the operation.
//	... writers: Retire(c, node) after a node is unlinked and can no longer
//	    be reached by new operations.
//	EndOp(c)
//
// Alloc must be used instead of Ctx.AllocNode so era-based schemes can stamp
// birth eras and advance epochs.
type Reclaimer interface {
	Name() string
	BeginOp(c *sim.Ctx)
	EndOp(c *sim.Ctx)
	Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool
	Alloc(c *sim.Ctx) mem.Addr
	Retire(c *sim.Ctx, node mem.Addr)
	// Validating reports whether Protect's guarantee is conditional on the
	// structure re-validating link/mark invariants after each Protect (true
	// for the pointer- and era-publishing schemes hp and he, whose published
	// protection only covers nodes that were reachable at publish time).
	// Epoch- and interval-based schemes protect everything unreclaimed and
	// return false, letting traversals skip the extra validation reads.
	Validating() bool
	// Stats reports scheme-level counters for the harness.
	Stats() Stats
}

// Stats aggregates reclaimer activity.
type Stats struct {
	Retired uint64
	Freed   uint64
	Scans   uint64
	// MaxBacklog is the largest retired-not-yet-freed backlog of any
	// thread, sampled after the scan a retire triggers.
	MaxBacklog int
}

// New constructs a reclaimer by name for a machine with nThreads simulated
// threads over space. Valid names: none, rcu, qsbr, ibr, hp, he.
// Conditional Access is not a Reclaimer — it is a different code path in the
// data structures — so "ca" is rejected here.
func New(name string, space *mem.Space, nThreads int, o Options) (Reclaimer, error) {
	o = o.withDefaults()
	switch name {
	case "none":
		return newNone(), nil
	case "rcu":
		return newEpoch(space, nThreads, o, false), nil
	case "qsbr":
		return newEpoch(space, nThreads, o, true), nil
	case "ibr":
		return newIBR(space, nThreads, o), nil
	case "hp":
		return newHP(space, nThreads, o), nil
	case "he":
		return newHE(space, nThreads, o), nil
	default:
		return nil, fmt.Errorf("smr: unknown scheme %q", name)
	}
}

// Names lists the reclaimer schemes in the order the paper plots them.
func Names() []string { return []string{"none", "ibr", "rcu", "qsbr", "hp", "he"} }

// retiredNode is one entry of a per-thread retired list.
type retiredNode struct {
	addr   mem.Addr
	birth  uint64 // era-based schemes
	retire uint64 // epoch/era at retire time
}

// retireCost is the local bookkeeping charge for pushing one retired node.
const retireCost = 3

// batch is the retire path of the schemes that free in scan passes (rcu,
// qsbr, ibr, hp and he): a retired node waits on its thread's list until
// every ReclaimEvery-th retire triggers a scan, which frees in one go each
// node the published reservations no longer pin. It also owns the era
// clock and the reservation lines. A scheme embeds it and supplies its
// publish protocol (BeginOp, EndOp, Protect) and, as T, its per-thread
// state, which snapshots the published reservations and says which retired
// nodes that snapshot pins.
type batch[T any, P view[T]] struct {
	name    string
	o       Options
	clock   mem.Addr   // global epoch/era word; 0 for hp, which has none
	births  bool       // Alloc stamps birth eras (ibr, he)
	res     []mem.Addr // per-thread reservation line
	threads []batchThread[T]
	stats   Stats
}

// batchThread is one thread's state. The snapshot is per thread because a
// scan's reads can end its quantum, and another thread's scan may run
// before it resumes.
type batchThread[T any] struct {
	allocs  uint64
	retired []retiredNode
	own     T
}

// view is what a scheme's per-thread state supplies to the scan pass.
type view[T any] interface {
	*T
	// snapshot reads every thread's reservation line.
	snapshot(c *sim.Ctx, res []mem.Addr)
	// pinned reports whether the last snapshot still protects rn.
	pinned(rn retiredNode) bool
}

// newBatch carves the era clock, if the scheme has one, before one zeroed
// reservation line per thread: that order fixes every node address.
func newBatch[T any, P view[T]](name string, space *mem.Space, nThreads int, o Options, clock, births bool) batch[T, P] {
	b := batch[T, P]{name: name, o: o, births: births}
	if clock {
		b.clock = space.AllocInfra()
		space.Write(b.clock, 1) // eras start at 1 so 0 reads as "idle"
	}
	b.res = make([]mem.Addr, nThreads)
	for t := range b.res {
		b.res[t] = space.AllocInfra()
	}
	b.threads = make([]batchThread[T], nThreads)
	return b
}

func (b *batch[T, P]) Name() string { return b.name }

func (b *batch[T, P]) Stats() Stats { return b.stats }

// own returns the calling thread's scheme state.
func (b *batch[T, P]) own(c *sim.Ctx) *T { return &b.threads[c.ThreadID()].own }

// Alloc advances the era clock after every EpochEvery allocations by a
// thread, and stamps the node's birth era for ibr and he.
func (b *batch[T, P]) Alloc(c *sim.Ctx) mem.Addr {
	if b.clock == 0 {
		return c.AllocNode()
	}
	pt := &b.threads[c.ThreadID()]
	pt.allocs++
	if pt.allocs%uint64(b.o.EpochEvery) == 0 {
		c.FetchAdd(b.clock, 1)
	}
	node := c.AllocNode()
	if b.births {
		// The store is part of node initialization; the line was just
		// allocated so this is typically a cheap upgrade.
		c.Write(node+BirthEraOff, c.Read(b.clock))
	}
	return node
}

// Retire appends node, with its birth and retire eras, to the calling
// thread's retired list and scans every ReclaimEvery retires. MaxBacklog is
// sampled after that scan.
func (b *batch[T, P]) Retire(c *sim.Ctx, node mem.Addr) {
	pt := &b.threads[c.ThreadID()]
	rn := retiredNode{addr: node}
	if b.births {
		rn.birth = c.Read(node + BirthEraOff)
	}
	if b.clock != 0 {
		rn.retire = c.Read(b.clock)
	}
	pt.retired = append(pt.retired, rn)
	b.stats.Retired++
	c.Work(retireCost)
	if len(pt.retired) >= b.o.ReclaimEvery {
		b.scan(c, pt)
	}
	b.stats.MaxBacklog = max(b.stats.MaxBacklog, len(pt.retired))
}

// scan frees every node on pt's retired list that a fresh snapshot of the
// reservations does not pin. The reservation reads are real shared-memory
// reads, so the scan cost (and the cache misses it takes) is charged to the
// reclaimer. The whole pass is a reclamation pause: the triggering
// operation absorbs every cycle charged here (the paper's batching
// critique).
func (b *batch[T, P]) scan(c *sim.Ctx, pt *batchThread[T]) {
	c.BeginPause()
	defer c.EndPause()
	b.stats.Scans++
	snap := P(&pt.own)
	snap.snapshot(c, b.res)
	kept := pt.retired[:0]
	for _, rn := range pt.retired {
		if snap.pinned(rn) {
			kept = append(kept, rn)
		} else {
			c.Free(rn.addr)
			b.stats.Freed++
		}
	}
	// Count this scan's frees from its own list: a free can end the quantum,
	// so other threads' scans may have moved b.stats.Freed meanwhile.
	freed := len(pt.retired) - len(kept)
	pt.retired = kept
	c.TraceScan(b.name, freed, len(kept))
}

// slotAddr is the address of word slot of reservation line ra.
func slotAddr(ra mem.Addr, slot int) mem.Addr { return ra + mem.Addr(slot)*mem.WordBytes }
