package cache

import (
	"fmt"
	"math/bits"
)

const (
	lineBytes = 64
	lineShift = 6 // log2(lineBytes)

	// invalidLine marks an empty way in the line-tag slabs. Line addresses
	// are always 64-byte aligned, so no lookup can ever match it — find needs
	// only a single compare per way, no validity check.
	invalidLine = ^uint64(0)
)

// State is an MSI line state as seen by a private L1.
type State uint8

// MSI states. A line absent from the cache is Invalid.
const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return "?"
}

// Stats aggregates hierarchy activity for one simulation.
type Stats struct {
	L1Hits        uint64 // L1 accesses (the L1 clocks' sum) minus L1Misses
	L1Misses      uint64
	L2Hits        uint64
	L2Misses      uint64
	Invalidations uint64 // remote L1 copies invalidated by writes
	RemoteFwds    uint64 // misses served by a remote Modified copy
	Upgrades      uint64 // S->M upgrades with no other sharers
	L1Evictions   uint64 // local conflict/capacity evictions
	BackInvals    uint64 // L1 copies dropped by inclusive-L2 evictions
}

// ways is the placement state both cache levels share. Each per-way field
// is one contiguous slab — set s occupies indices [s*assoc, (s+1)*assoc) —
// indexed by shifting and masking the address. A lookup is one load of the
// residency index wayOf; a hit then touches only its own way's lru and the
// cache's own clock. The fields a hit touches come first.
type ways struct {
	// wayOf is the residency index: wayOf[li] is 1 + the slab index of the
	// way holding line li<<lineShift, or 0 when the line is not resident.
	// Simulated line numbers are small and dense (the heap carves lines
	// upward from zero), so a flat table makes the per-access lookup — the
	// hottest operation in the whole simulator — one load instead of a scan
	// of the set. place, dropL1 and reset keep it exactly in sync with the
	// lines slab, so a lookup's result is identical to a scan's.
	wayOf []int32
	lru   []uint64
	// clock is this cache's replacement clock. Every access to an L1
	// advances that L1's clock exactly once and stamps the way it hits or
	// fills; the L2's advances once per access that reaches it (an L1 miss
	// or an S->M upgrade). LRU stamps are compared only within one set of one
	// cache, so a per-cache clock picks exactly the victims a machine-wide
	// one would. Because an L1's clock counts its accesses, Stats derives the
	// hit count from the clocks, and a hit updates no shared counter.
	clock uint64
	lines []uint64 // line base addresses; invalidLine iff the way is empty
	// empty holds one mask per set: bit i is set iff way i of the set is
	// empty, so place finds the first empty way with one bit scan, and a full
	// set reads 0. Params.Check caps the associativity at 64 to fit a word.
	empty   []uint64
	setMask uint64
	assoc   uint64
}

// newWays builds the empty placement state of a bytes-sized, assoc-way
// cache.
func newWays(bytes, assoc int) ways {
	n := (bytes / (assoc * lineBytes)) * assoc
	c := ways{
		lru:     make([]uint64, n),
		lines:   make([]uint64, n),
		empty:   make([]uint64, n/assoc),
		setMask: uint64(n/assoc - 1),
		assoc:   uint64(assoc),
	}
	c.reset()
	return c
}

func (c *ways) reset() {
	for i := range c.lines {
		c.lines[i] = invalidLine
	}
	clear(c.lru)
	all := ^uint64(0) >> (64 - c.assoc)
	for i := range c.empty {
		c.empty[i] = all
	}
	clear(c.wayOf)
	c.clock = 0
}

// find returns the slab index of line's way, or -1 when not resident: one
// load of the residency index, equivalent by construction to scanning the
// set's tags.
func (c *ways) find(line uint64) int {
	if li := line >> lineShift; li < uint64(len(c.wayOf)) {
		return int(c.wayOf[li]) - 1
	}
	return -1
}

// place puts line in its set — in the first empty way, or else in place of
// the least recently used line — stamped with the cache's clock, and returns
// the way and the line it evicted (invalidLine if the way was empty). The
// level's own slabs still hold the evicted line's state for the caller's
// eviction side effects.
func (c *ways) place(line uint64) (w int, evicted uint64) {
	set := (line >> lineShift) & c.setMask
	base := int(set) * int(c.assoc)
	evicted = invalidLine
	if e := c.empty[set]; e != 0 {
		w = base + bits.TrailingZeros64(e)
		c.empty[set] = e & (e - 1)
	} else {
		w = base + minLRU(c.lru[base:base+int(c.assoc)])
		evicted = c.lines[w]
		c.wayOf[evicted>>lineShift] = 0
	}
	li := line >> lineShift
	if li >= uint64(len(c.wayOf)) {
		c.wayOf = growWays(c.wayOf, li)
	}
	c.wayOf[li] = int32(w) + 1
	c.lines[w] = line
	c.lru[w] = c.clock
	return w, evicted
}

// drop empties way w, which holds line, and clears line's residency.
func (c *ways) drop(w int, line uint64) {
	set := (line >> lineShift) & c.setMask
	c.lines[w] = invalidLine
	c.wayOf[line>>lineShift] = 0
	c.empty[set] |= 1 << uint(w-int(set)*int(c.assoc))
}

// check verifies the per-set empty-way masks and the residency index
// against the line slab. A drifted mask silently corrupts victim choice
// (place would evict a live line while an empty way exists, or fill a way
// that holds one), and every other invariant probes residency through find,
// so a drifted index would corrupt both the simulation and its own
// validation.
func (c *ways) check(level string) error {
	assoc := int(c.assoc)
	for set, e := range c.empty {
		var want uint64
		for i, l := range c.lines[set*assoc : (set+1)*assoc] {
			if l == invalidLine {
				want |= 1 << uint(i)
			}
		}
		if e != want {
			return fmt.Errorf("%s set %d empty-way mask %b != actual %b", level, set, e, want)
		}
	}
	for w, line := range c.lines {
		if line != invalidLine && c.find(line) != w {
			return fmt.Errorf("%s line %#x in way %d but residency index says %d", level, line, w, c.find(line))
		}
	}
	for li, w := range c.wayOf {
		if w != 0 && (int(w) > len(c.lines) || c.lines[w-1] != uint64(li)<<lineShift) {
			return fmt.Errorf("%s residency index maps line %#x to way %d, which holds another line", level, uint64(li)<<lineShift, w-1)
		}
	}
	return nil
}

// l1cache is a private L1: the shared placement state plus each way's MSI
// state and L2 way.
type l1cache struct {
	ways
	state []State
	// l2way caches each resident line's way index in the shared L2. The L2
	// is inclusive and never relocates a resident line (a fill only claims an
	// empty or evicted way, and an L2 eviction back-invalidates every L1
	// copy), so the index recorded at install time stays valid for the
	// line's whole L1 residency — evictions and upgrades reach the directory
	// without a second L2 lookup.
	l2way []int32
}

// l2cache is the shared inclusive L2: the shared placement state plus the
// directory (sharers, owner, dirty) in further parallel slabs.
type l2cache struct {
	ways
	sharers []uint64 // bitmask of cores with an L1 copy
	owner   []int8   // core holding Modified, or -1
	dirty   []bool
}

// Hierarchy is the full simulated memory system: one private L1 per
// physical core (shared by its hyperthreads when ThreadsPerCore > 1) over
// one shared inclusive L2 with a directory, and each hardware thread's
// Conditional Access tags and accessRevokedBit. It is not safe for
// concurrent use; the simulator serializes accesses.
//
// All public entry points take a hardware-thread id; the hierarchy maps it
// to its physical L1. A tag bit lives on an L1 line, so wherever the
// hierarchy removes an L1 copy it drops every hyperthread's tag on the line
// and revokes access; a write by one hyperthread does the same to its
// siblings, whose tags on the line must be revoked even though it stays
// resident (paper Section III).
type Hierarchy struct {
	p     Params
	smt   int // hardware threads per L1
	l1    []l1cache
	l2    l2cache
	ports []Port   // one per hardware thread, indexed by its id
	tags  []tagSet // one per hardware thread, indexed by its id
	stats Stats    // every count but L1Hits, which Stats derives
}

// Port is one hardware thread's own view of its L1 and its Conditional
// Access state, built once per hierarchy. ReadHit and WriteHit serve an L1
// hit from it alone: one residency-index load, the way's LRU stamp and the
// L1's own clock. They, and the tag methods, are small enough to inline into
// the simulator's access paths. Everything else — misses, S->M upgrades,
// and write hits that must revoke SMT siblings' tags — goes through
// Hierarchy.Read and Hierarchy.Write, which try the same port first. A
// Port's own fields never change after New, so callers keep a copy of it
// next to their other per-thread state, and every copy reaches the same tag
// set. core and smt share a word to keep that copy at 32 bytes.
type Port struct {
	l1     *l1cache
	tags   *tagSet
	hitLat uint64
	core   int32 // index of l1 in Hierarchy.l1: tid / ThreadsPerCore
	smt    bool  // the L1 is shared with SMT siblings
}

// Port returns hardware thread tid's port.
func (h *Hierarchy) Port(tid int) Port { return h.ports[tid] }

// HitLatency is the latency of an access ReadHit or WriteHit served.
func (p *Port) HitLatency() uint64 { return p.hitLat }

// ReadHit serves a load of addr when its line is resident in the thread's
// L1 and reports whether it did. On false nothing has changed, and the load
// must go through Hierarchy.Read.
func (p *Port) ReadHit(addr uint64) bool {
	l1 := p.l1
	if li := addr >> lineShift; li < uint64(len(l1.wayOf)) {
		if w := l1.wayOf[li]; w != 0 {
			l1.clock++
			l1.lru[w-1] = l1.clock
			return true
		}
	}
	return false
}

// WriteHit serves a store to addr when the thread's L1 holds its line
// Modified and has no SMT siblings, and reports whether it did. On false
// nothing has changed, and the store must go through Hierarchy.Write: a
// sibling's tags on the line must be revoked even on a hit.
func (p *Port) WriteHit(addr uint64) bool {
	l1 := p.l1
	if li := addr >> lineShift; li < uint64(len(l1.wayOf)) && !p.smt {
		if w := l1.wayOf[li]; w != 0 && l1.state[w-1] == Modified {
			l1.clock++
			l1.lru[w-1] = l1.clock
			return true
		}
	}
	return false
}

// New builds a hierarchy for p. Geometry is validated (including
// power-of-two set counts) before anything is allocated.
func New(p Params) *Hierarchy {
	p.Validate()
	h := &Hierarchy{p: p, smt: p.SMTWidth()}
	h.l1 = make([]l1cache, p.L1Count())
	for c := range h.l1 {
		l1 := &h.l1[c]
		l1.ways = newWays(p.L1Bytes, p.L1Assoc)
		l1.state = make([]State, len(l1.lines))
		l1.l2way = make([]int32, len(l1.lines))
	}
	h.ports = make([]Port, p.Cores)
	h.tags = make([]tagSet, p.Cores)
	for t := range h.ports {
		c := t / h.smt
		h.tags[t].era = 1
		h.ports[t] = Port{l1: &h.l1[c], tags: &h.tags[t], hitLat: p.LatL1Hit, core: int32(c), smt: h.smt > 1}
	}
	h.l2.ways = newWays(p.L2Bytes, p.L2Assoc)
	h.l2.sharers = make([]uint64, len(h.l2.lines))
	h.l2.owner = make([]int8, len(h.l2.lines))
	h.l2.dirty = make([]bool, len(h.l2.lines))
	return h
}

// Reset empties every cache and tag set, clears every accessRevokedBit, and
// zeroes the statistics and the replacement clocks, returning the hierarchy
// to its post-New state without reallocating the slabs.
func (h *Hierarchy) Reset() {
	for c := range h.l1 {
		h.l1[c].reset()
		clear(h.l1[c].state)
	}
	h.l2.reset()
	clear(h.l2.sharers)
	clear(h.l2.owner)
	clear(h.l2.dirty)
	for t := range h.tags {
		h.tags[t].reset()
	}
	h.stats = Stats{}
}

// Params returns the configuration the hierarchy was built with.
func (h *Hierarchy) Params() Params { return h.p }

// Stats returns a copy of the accumulated statistics.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	for c := range h.l1 {
		s.L1Hits += h.l1[c].clock
	}
	s.L1Hits -= s.L1Misses
	return s
}

// min8 returns the index of the smallest of a's eight values, first index
// winning ties (the LRU stamps of one set's valid ways are unique, but the
// tie-break matches the sequential scan regardless). The tournament shape
// gives the CPU four independent comparisons instead of a serial dependency
// chain.
func min8(a *[8]uint64) int {
	i01, v01 := 0, a[0]
	if a[1] < v01 {
		i01, v01 = 1, a[1]
	}
	i23, v23 := 2, a[2]
	if a[3] < v23 {
		i23, v23 = 3, a[3]
	}
	i45, v45 := 4, a[4]
	if a[5] < v45 {
		i45, v45 = 5, a[5]
	}
	i67, v67 := 6, a[6]
	if a[7] < v67 {
		i67, v67 = 7, a[7]
	}
	if v23 < v01 {
		i01, v01 = i23, v23
	}
	if v67 < v45 {
		i45, v45 = i67, v67
	}
	if v45 < v01 {
		i01 = i45
	}
	return i01
}

// minLRU returns the offset within lru (length assoc) of the minimum value,
// specialized for the common associativities.
func minLRU(lru []uint64) int {
	switch len(lru) {
	case 8:
		return min8((*[8]uint64)(lru))
	case 16:
		lo := min8((*[8]uint64)(lru))
		hi := 8 + min8((*[8]uint64)(lru[8:16]))
		if lru[hi] < lru[lo] {
			return hi
		}
		return lo
	}
	minI, minV := 0, lru[0]
	for i, v := range lru[1:] {
		if v < minV {
			minI, minV = i+1, v
		}
	}
	return minI
}

// growWays extends a residency index to cover line index li. The simulated
// heap only grows, so this amortizes to nothing after warm-up.
func growWays(w []int32, li uint64) []int32 {
	n := uint64(64)
	for n <= li {
		n *= 2
	}
	nw := make([]int32, n)
	copy(nw, w)
	return nw
}

// HasLine reports the L1 state of line for hardware thread tid without
// touching LRU or charging latency (a diagnostic, used by tests).
func (h *Hierarchy) HasLine(tid int, line uint64) State {
	l1 := h.ports[tid].l1
	if w := l1.find(line); w >= 0 {
		return l1.state[w]
	}
	return Invalid
}

// Read performs a load by hardware thread tid from the line containing addr
// and returns its latency in cycles.
func (h *Hierarchy) Read(tid int, addr uint64) uint64 {
	p := &h.ports[tid]
	if p.ReadHit(addr) {
		return p.hitLat
	}
	core := int(p.core)
	line := addr &^ (lineBytes - 1)
	p.l1.clock++
	h.l2.clock++
	h.stats.L1Misses++
	lat, w2 := h.missFill(core, line, false)
	h.l2.sharers[w2] |= 1 << uint(core)
	h.l2.lru[w2] = h.l2.clock
	h.installL1(core, line, Shared, w2)
	return lat
}

// Write obtains Modified ownership of the line containing addr for hardware
// thread tid and returns the latency. The caller performs the actual data
// store in the simulated heap.
func (h *Hierarchy) Write(tid int, addr uint64) uint64 {
	p := &h.ports[tid]
	if p.WriteHit(addr) {
		return p.hitLat
	}
	core := int(p.core)
	line := addr &^ (lineBytes - 1)
	l1 := p.l1
	l1.clock++
	if w := l1.find(line); w >= 0 {
		l1.lru[w] = l1.clock
		if l1.state[w] == Modified {
			// A hit WriteHit declined: the L1 has SMT siblings.
			h.revokeSiblings(tid, line)
			return h.p.LatL1Hit
		}
		// S -> M upgrade.
		h.l2.clock++
		lat := h.p.LatL1Hit + h.p.LatDir
		w2 := int(l1.l2way[w])
		if h.l2.lines[w2] != line {
			panic(fmt.Sprintf("cache: inclusivity violated for line %#x", line))
		}
		if others := h.l2.sharers[w2] &^ (1 << uint(core)); others != 0 {
			lat += h.p.LatInv
			h.invalidateSharers(line, others)
			h.l2.sharers[w2] &= 1 << uint(core)
		} else {
			lat += h.p.LatUpgrade
			h.stats.Upgrades++
		}
		h.l2.owner[w2] = int8(core)
		h.l2.lru[w2] = h.l2.clock
		l1.state[w] = Modified
		h.revokeSiblings(tid, line)
		return lat
	}
	// Miss: read-for-ownership. No sibling holds a tag on the line: tags
	// live on L1 lines, and this L1 did not hold it.
	h.l2.clock++
	h.stats.L1Misses++
	lat, w2 := h.missFill(core, line, true)
	h.l2.sharers[w2] = 1 << uint(core)
	h.l2.owner[w2] = int8(core)
	h.l2.lru[w2] = h.l2.clock
	h.installL1(core, line, Modified, w2)
	return lat
}

// missFill is the L1-miss path shared by Read and Write: directory lookup,
// L2 fill on an L2 miss, and remote-owner resolution. For a read the remote
// Modified copy is downgraded and forwarded; for a write (read-for-
// ownership) the owner's copy is dropped and every other sharer invalidated.
// It returns the latency accumulated so far and the slab index of the line's
// L2 way, whose sharers/owner/lru the caller updates.
func (h *Hierarchy) missFill(core int, line uint64, forWrite bool) (uint64, int) {
	lat := h.p.LatL1Hit + h.p.LatDir
	w2 := h.l2.find(line)
	if w2 < 0 {
		h.stats.L2Misses++
		return lat + h.p.LatMem, h.installL2(line)
	}
	h.stats.L2Hits++
	lat += h.p.LatL2Hit
	if owner := h.l2.owner[w2]; owner >= 0 && (forWrite || int(owner) != core) {
		// A remote L1 holds the line Modified: forward it.
		lat += h.p.LatRemoteFwd
		h.stats.RemoteFwds++
		if forWrite {
			h.dropL1(int(owner), line)
			h.l2.dirty[w2] = true
			h.l2.sharers[w2] &^= 1 << uint(owner)
			h.l2.owner[w2] = -1
		} else {
			h.downgradeOwner(w2)
		}
	}
	if forWrite {
		if others := h.l2.sharers[w2] &^ (1 << uint(core)); others != 0 {
			lat += h.p.LatInv
			h.invalidateSharers(line, others)
		}
	}
	return lat, w2
}

// downgradeOwner moves the current owner's copy of the line in L2 way w2
// from Modified to Shared, writing the line back to the L2. The line stays
// resident, so a downgrade revokes nothing: only invalidations do.
func (h *Hierarchy) downgradeOwner(w2 int) {
	line := h.l2.lines[w2]
	l1 := &h.l1[h.l2.owner[w2]]
	ow := l1.find(line)
	if ow < 0 || l1.state[ow] != Modified {
		panic(fmt.Sprintf("cache: directory owner desync for line %#x", line))
	}
	l1.state[ow] = Shared
	h.l2.dirty[w2] = true
	h.l2.owner[w2] = -1
}

// invalidateSharers drops every L1 copy named in mask, lowest core first
// (these are true invalidations: tagged copies are revoked).
func (h *Hierarchy) invalidateSharers(line uint64, mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		h.dropL1(bits.TrailingZeros64(mask), line)
		h.stats.Invalidations++
	}
}

// dropL1 removes physical core l1i's copy of line (if present), revoking
// every hyperthread of that core that had it tagged.
func (h *Hierarchy) dropL1(l1i int, line uint64) {
	l1 := &h.l1[l1i]
	if w := l1.find(line); w >= 0 {
		l1.state[w] = Invalid
		l1.drop(w, line)
		h.revokeLine(l1i, line)
	}
}

// installL1 places line (whose L2 way is w2new) into core's L1 in the given
// state, evicting a victim if the set is full. A victim eviction is an
// invalidation of the victim line for this core (revoking any tag on it),
// and updates the directory.
func (h *Hierarchy) installL1(core int, line uint64, st State, w2new int) {
	l1 := &h.l1[core]
	w, vline := l1.place(line)
	if vline != invalidLine {
		h.stats.L1Evictions++
		w2 := int(l1.l2way[w])
		if h.l2.lines[w2] != vline {
			panic(fmt.Sprintf("cache: inclusivity violated evicting %#x", vline))
		}
		if l1.state[w] == Modified {
			h.l2.dirty[w2] = true
		}
		if int(h.l2.owner[w2]) == core {
			h.l2.owner[w2] = -1
		}
		h.l2.sharers[w2] &^= 1 << uint(core)
		h.revokeLine(core, vline)
	}
	l1.state[w] = st
	l1.l2way[w] = int32(w2new)
}

// installL2 places line into the L2, evicting (and back-invalidating) a
// victim if needed, and returns the slab index of the new way.
func (h *Hierarchy) installL2(line uint64) int {
	l2 := &h.l2
	w, vline := l2.place(line)
	if vline != invalidLine {
		// Back-invalidate every L1 copy (inclusive L2), lowest core first.
		// Dirty victims write back to memory; the cost is off the
		// requester's critical path and is not charged.
		for m := l2.sharers[w]; m != 0; m &= m - 1 {
			h.dropL1(bits.TrailingZeros64(m), vline)
			h.stats.BackInvals++
		}
	}
	l2.sharers[w] = 0
	l2.owner[w] = -1
	l2.dirty[w] = false
	return w
}

// CheckInvariants validates directory/L1 consistency — at most one Modified
// copy per line, directory sharer sets exactly matching L1 contents, and
// inclusivity — each cache's placement state, and each hardware thread's
// tags. Property tests call it after random access sequences, so it works
// directly off the indexed cache slabs (l1.find/l2.find probes) rather than
// building a per-call map of holders: no allocation, and cost proportional
// to the slabs plus actual sharing.
func (h *Hierarchy) CheckInvariants() error {
	// Every valid L1 line must be in the inclusive L2, its directory sharer
	// bit must be set, and a Modified copy must be the directory owner.
	for c := range h.l1 {
		l1 := &h.l1[c]
		for i, line := range l1.lines {
			if line == invalidLine {
				if l1.state[i] != Invalid {
					return fmt.Errorf("empty L1 way %d in core %d has state %v", i, c, l1.state[i])
				}
				continue
			}
			if l1.state[i] == Invalid {
				return fmt.Errorf("invalid L1 way in core %d holds line %#x instead of the sentinel", c, line)
			}
			w2 := h.l2.find(line)
			if w2 < 0 {
				return fmt.Errorf("line %#x in an L1 but not in inclusive L2", line)
			}
			if h.l2.sharers[w2]&(1<<uint(c)) == 0 {
				return fmt.Errorf("line %#x held by core %d but directory sharers %b lack it", line, c, h.l2.sharers[w2])
			}
			if l1.state[i] == Modified && int(h.l2.owner[w2]) != c {
				return fmt.Errorf("line %#x Modified in core %d but directory owner is %d", line, c, h.l2.owner[w2])
			}
		}
	}
	// Every directory entry's claimed sharers must actually hold the line,
	// with exactly the directory's owner (if any) Modified and owning alone.
	// Combined with the pass above (no L1 copy outside the sharer set), the
	// claimed set equals the actual set.
	for i, line := range h.l2.lines {
		if line == invalidLine {
			continue
		}
		owner := int8(-1)
		for m := h.l2.sharers[i]; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if c >= len(h.l1) {
				return fmt.Errorf("line %#x directory sharers %b name nonexistent cores", line, h.l2.sharers[i])
			}
			w := h.l1[c].find(line)
			if w < 0 {
				return fmt.Errorf("directory claims sharer %d for line %#x held by no such L1", c, line)
			}
			if h.l1[c].state[w] == Modified {
				if owner >= 0 {
					return fmt.Errorf("line %#x Modified in cores %d and %d", line, owner, c)
				}
				owner = int8(c)
			}
		}
		if h.l2.owner[i] != owner {
			return fmt.Errorf("line %#x directory owner %d != actual %d", line, h.l2.owner[i], owner)
		}
		if owner >= 0 && h.l2.sharers[i] != 1<<uint(owner) {
			return fmt.Errorf("line %#x Modified at %d but shared by %b", line, owner, h.l2.sharers[i])
		}
	}
	for c := range h.l1 {
		if err := h.l1[c].check("L1"); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
	}
	if err := h.l2.check("L2"); err != nil {
		return err
	}
	// Every tag sits on a line its thread's L1 holds (a tag leaves with its
	// line), and each thread's count matches its table.
	for tid := range h.tags {
		if err := h.tags[tid].check(h.ports[tid].l1); err != nil {
			return fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return nil
}
