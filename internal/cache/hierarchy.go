package cache

import "fmt"

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

// Listener receives coherence events. The Conditional Access extension
// (package core) registers one to learn when a core loses its copy of a
// tagged line. LineInvalidated fires whenever core's L1 copy of line is
// removed for any reason: a remote write invalidating it, a local capacity or
// conflict eviction, or an inclusive-L2 back-invalidation. It does not fire
// on an M->S downgrade, matching the paper: only invalidations revoke access.
type Listener interface {
	LineInvalidated(core int, line uint64)
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

// l1cache stores each per-way field as one contiguous slab — set s occupies
// indices [s*assoc, (s+1)*assoc) — indexed by shifting and masking the
// address. A lookup is one load of the residency index wayOf; a hit then
// touches only its own way's lru (and state, for a write) and the L1's own
// clock. The fields a hit touches come first.
type l1cache struct {
	// wayOf is the residency index: wayOf[li] is 1 + the slab index of the
	// way holding line li<<lineShift, or 0 when the line is not resident.
	// Simulated line numbers are small and dense (the heap carves lines
	// upward from zero), so a flat table makes the per-access lookup — the
	// hottest operation in the whole simulator — one load instead of a scan
	// of the set. install/drop keep it exactly in sync with the lines slab,
	// so a lookup's result is identical to a scan's.
	wayOf []int32
	lru   []uint64
	// clock is this L1's replacement clock: every access to the L1 advances
	// it exactly once and stamps the way it hits or fills. LRU stamps are
	// compared only within one set of one cache, so a per-cache clock picks
	// exactly the victims a machine-wide one would. Because it counts the
	// L1's accesses, Stats derives the hit count from the clocks, and a hit
	// updates no shared counter.
	clock uint64
	state []State
	lines []uint64 // line base addresses; invalidLine iff the way is empty
	// l2way caches each resident line's way index in the shared L2. The L2
	// is inclusive and never relocates a resident line (a fill only claims an
	// empty or evicted way, and an L2 eviction back-invalidates every L1
	// copy), so the index recorded at install time stays valid for the
	// line's whole L1 residency — evictions and upgrades reach the directory
	// without a second L2 set scan.
	l2way []int32
	// full counts the valid ways per set; installs consult it to skip the
	// empty-way scan once a set is full (the steady state).
	full    []uint16
	setMask uint64
	assoc   uint64
}

// l2cache is laid out exactly like l1cache, with the directory state
// (sharers, owner, dirty) in further parallel slabs. A way is valid iff its
// line tag is not invalidLine. Its clock advances once per access that
// reaches the L2: an L1 miss or an S->M upgrade.
type l2cache struct {
	lines   []uint64
	lru     []uint64
	clock   uint64
	sharers []uint64 // bitmask of cores with an L1 copy
	owner   []int8   // core holding Modified, or -1
	dirty   []bool
	full    []uint16 // valid ways per set, as in l1cache
	setMask uint64
	assoc   uint64
	wayOf   []int32 // residency index, as in l1cache
}

// Hierarchy is the full simulated memory system: one private L1 per
// physical core (shared by its hyperthreads when ThreadsPerCore > 1) over
// one shared inclusive L2 with a directory. It is not safe for concurrent
// use; the simulator serializes accesses.
//
// All public entry points take a hardware-thread id; the hierarchy maps it
// to its physical L1. Listener events are delivered per hardware thread:
// losing an L1 line notifies every hyperthread of that core, and a write by
// one hyperthread notifies its siblings (whose tags on the line must be
// revoked even though the line stays resident — paper Section III).
type Hierarchy struct {
	p        Params
	smt      int // hardware threads per L1
	l1       []l1cache
	l2       l2cache
	ports    []Port // one per hardware thread, indexed by its id
	listener Listener
	stats    Stats // every count but L1Hits, which Stats derives
}

// Port is one hardware thread's own view of its L1, built once per
// hierarchy. ReadHit and WriteHit serve an L1 hit from it alone: one
// residency-index load, the way's LRU stamp and the L1's own clock. They are
// small enough to inline into the simulator's access paths. Everything else
// — misses, S->M upgrades, and write hits that must notify SMT siblings —
// goes through Hierarchy.Read and Hierarchy.Write, which try the same port
// first. A Port never changes after New, so callers keep a copy of it next
// to their other per-thread state.
type Port struct {
	l1     *l1cache
	core   int // index of l1 in Hierarchy.l1: tid / ThreadsPerCore
	hitLat uint64
	smt    bool // the L1 is shared with SMT siblings
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

// New builds a hierarchy for p. listener may be nil. Geometry is validated
// (including power-of-two set counts) before anything is allocated.
func New(p Params, listener Listener) *Hierarchy {
	p.Validate()
	h := &Hierarchy{p: p, smt: p.SMTWidth(), listener: listener}
	l1Ways := (p.L1Bytes / (p.L1Assoc * lineBytes)) * p.L1Assoc
	h.l1 = make([]l1cache, p.L1Count())
	for c := range h.l1 {
		h.l1[c] = l1cache{
			lines:   make([]uint64, l1Ways),
			lru:     make([]uint64, l1Ways),
			state:   make([]State, l1Ways),
			l2way:   make([]int32, l1Ways),
			full:    make([]uint16, l1Ways/p.L1Assoc),
			setMask: uint64(p.L1Bytes/(p.L1Assoc*lineBytes) - 1),
			assoc:   uint64(p.L1Assoc),
		}
		h.l1[c].reset()
	}
	h.ports = make([]Port, p.Cores)
	for t := range h.ports {
		c := t / h.smt
		h.ports[t] = Port{l1: &h.l1[c], core: c, hitLat: p.LatL1Hit, smt: h.smt > 1}
	}
	l2Ways := (p.L2Bytes / (p.L2Assoc * lineBytes)) * p.L2Assoc
	h.l2 = l2cache{
		lines:   make([]uint64, l2Ways),
		lru:     make([]uint64, l2Ways),
		sharers: make([]uint64, l2Ways),
		owner:   make([]int8, l2Ways),
		dirty:   make([]bool, l2Ways),
		full:    make([]uint16, l2Ways/p.L2Assoc),
		setMask: uint64(p.L2Bytes/(p.L2Assoc*lineBytes) - 1),
		assoc:   uint64(p.L2Assoc),
	}
	h.l2.reset()
	return h
}

func (c *l1cache) reset() {
	for i := range c.lines {
		c.lines[i] = invalidLine
	}
	clear(c.lru)
	clear(c.state)
	clear(c.full)
	clear(c.wayOf)
	c.clock = 0
}

func (c *l2cache) reset() {
	for i := range c.lines {
		c.lines[i] = invalidLine
	}
	clear(c.lru)
	clear(c.sharers)
	clear(c.owner)
	clear(c.dirty)
	clear(c.full)
	clear(c.wayOf)
	c.clock = 0
}

// Reset empties every cache and zeroes the statistics and the replacement
// clocks, returning the hierarchy to its post-New state without
// reallocating the slabs.
func (h *Hierarchy) Reset() {
	for c := range h.l1 {
		h.l1[c].reset()
	}
	h.l2.reset()
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

// base returns the slab index of the first way of line's set.
func (c *l1cache) base(line uint64) uint64 {
	return ((line >> lineShift) & c.setMask) * c.assoc
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

// find returns the slab index of line's way, or -1 when not resident: one
// load of the residency index, equivalent by construction to scanning the
// set's tags.
func (c *l1cache) find(line uint64) int {
	if li := line >> lineShift; li < uint64(len(c.wayOf)) {
		return int(c.wayOf[li]) - 1
	}
	return -1
}

func (c *l2cache) base(line uint64) uint64 {
	return ((line >> lineShift) & c.setMask) * c.assoc
}

func (c *l2cache) find(line uint64) int {
	if li := line >> lineShift; li < uint64(len(c.wayOf)) {
		return int(c.wayOf[li]) - 1
	}
	return -1
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

// notify delivers a LineInvalidated event to every hardware thread of
// physical core l1i.
func (h *Hierarchy) notify(l1i int, line uint64) {
	if h.listener == nil {
		return
	}
	for k := 0; k < h.smt; k++ {
		h.listener.LineInvalidated(l1i*h.smt+k, line)
	}
}

// notifySiblings delivers a LineInvalidated event to tid's hyperthread
// siblings (not tid itself): a local write leaves the line resident, but any
// sibling tag on it must be revoked.
func (h *Hierarchy) notifySiblings(tid int, line uint64) {
	if h.listener == nil || h.smt == 1 {
		return
	}
	base := h.ports[tid].core * h.smt
	for k := 0; k < h.smt; k++ {
		if base+k != tid {
			h.listener.LineInvalidated(base+k, line)
		}
	}
}

// Read performs a load by hardware thread tid from the line containing addr
// and returns its latency in cycles.
func (h *Hierarchy) Read(tid int, addr uint64) uint64 {
	p := &h.ports[tid]
	if p.ReadHit(addr) {
		return p.hitLat
	}
	core := p.core
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
	core := p.core
	line := addr &^ (lineBytes - 1)
	l1 := p.l1
	l1.clock++
	if w := l1.find(line); w >= 0 {
		l1.lru[w] = l1.clock
		if l1.state[w] == Modified {
			// A hit WriteHit declined: the L1 has SMT siblings.
			h.notifySiblings(tid, line)
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
		h.notifySiblings(tid, line)
		return lat
	}
	// Miss: read-for-ownership.
	h.l2.clock++
	h.stats.L1Misses++
	lat, w2 := h.missFill(core, line, true)
	h.l2.sharers[w2] = 1 << uint(core)
	h.l2.owner[w2] = int8(core)
	h.l2.lru[w2] = h.l2.clock
	h.installL1(core, line, Modified, w2)
	h.notifySiblings(tid, line)
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
// from Modified to Shared, writing the line back to the L2. Downgrades do
// not fire the listener.
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

// invalidateSharers drops every L1 copy named in mask and fires the listener
// for each (these are true invalidations: tagged copies are revoked).
func (h *Hierarchy) invalidateSharers(line uint64, mask uint64) {
	for c := 0; mask != 0; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		mask &^= 1 << uint(c)
		h.dropL1(c, line)
		h.stats.Invalidations++
	}
}

// dropL1 removes physical core l1i's copy of line (if present) and notifies
// every hyperthread of that core.
func (h *Hierarchy) dropL1(l1i int, line uint64) {
	l1 := &h.l1[l1i]
	if w := l1.find(line); w >= 0 {
		l1.state[w] = Invalid
		l1.lines[w] = invalidLine
		l1.wayOf[line>>lineShift] = 0
		l1.full[(line>>lineShift)&l1.setMask]--
		h.notify(l1i, line)
	}
}

// installL1 places line (whose L2 way is w2new) into core's L1 in the given
// state, evicting a victim if the set is full. A victim eviction is an
// invalidation of the victim line for this core (revoking any tag on it),
// and updates the directory.
func (h *Hierarchy) installL1(core int, line uint64, st State, w2new int) {
	l1 := &h.l1[core]
	set := (line >> lineShift) & l1.setMask
	base := int(set) * int(l1.assoc)
	end := base + int(l1.assoc)
	victim := -1
	// First empty way wins; a full set (the steady state, tracked in full)
	// skips straight to the LRU pass. Range loops over subslices let the
	// compiler elide per-way bounds checks.
	if int(l1.full[set]) < int(l1.assoc) {
		for i, l := range l1.lines[base:end] {
			if l == invalidLine {
				victim = base + i
				break
			}
		}
	}
	if victim >= 0 {
		l1.full[set]++
		goto place
	}
	victim = base + minLRU(l1.lru[base:end])
	// Evict the LRU way.
	{
		vline := l1.lines[victim]
		h.stats.L1Evictions++
		w2 := int(l1.l2way[victim])
		if h.l2.lines[w2] != vline {
			panic(fmt.Sprintf("cache: inclusivity violated evicting %#x", vline))
		}
		if l1.state[victim] == Modified {
			h.l2.dirty[w2] = true
		}
		if int(h.l2.owner[w2]) == core {
			h.l2.owner[w2] = -1
		}
		h.l2.sharers[w2] &^= 1 << uint(core)
		l1.state[victim] = Invalid
		l1.wayOf[vline>>lineShift] = 0
		h.notify(core, vline)
	}
place:
	if li := line >> lineShift; li < uint64(len(l1.wayOf)) {
		l1.wayOf[li] = int32(victim) + 1
	} else {
		l1.wayOf = growWays(l1.wayOf, li)
		l1.wayOf[li] = int32(victim) + 1
	}
	l1.lines[victim] = line
	l1.state[victim] = st
	l1.lru[victim] = l1.clock
	l1.l2way[victim] = int32(w2new)
}

// installL2 places line into the L2, evicting (and back-invalidating) a
// victim if needed, and returns the slab index of the new way.
func (h *Hierarchy) installL2(line uint64) int {
	l2 := &h.l2
	set := (line >> lineShift) & l2.setMask
	base := int(set) * int(l2.assoc)
	end := base + int(l2.assoc)
	victim := -1
	if int(l2.full[set]) < int(l2.assoc) {
		for i, l := range l2.lines[base:end] {
			if l == invalidLine {
				victim = base + i
				break
			}
		}
	}
	if victim >= 0 {
		l2.full[set]++
		goto place
	}
	victim = base + minLRU(l2.lru[base:end])
	// Evict LRU, back-invalidating all L1 copies (inclusive L2).
	{
		vline := l2.lines[victim]
		for c, m := 0, l2.sharers[victim]; m != 0; c++ {
			if m&(1<<uint(c)) == 0 {
				continue
			}
			m &^= 1 << uint(c)
			h.dropL1(c, vline)
			h.stats.BackInvals++
		}
		l2.wayOf[vline>>lineShift] = 0
		// Dirty victims write back to memory; the cost is off the requester's
		// critical path and is not charged.
	}
place:
	if li := line >> lineShift; li < uint64(len(l2.wayOf)) {
		l2.wayOf[li] = int32(victim) + 1
	} else {
		l2.wayOf = growWays(l2.wayOf, li)
		l2.wayOf[li] = int32(victim) + 1
	}
	l2.lines[victim] = line
	l2.lru[victim] = l2.clock
	l2.sharers[victim] = 0
	l2.owner[victim] = -1
	l2.dirty[victim] = false
	return victim
}

// CheckInvariants validates directory/L1 consistency: at most one Modified
// copy per line, directory sharer sets exactly matching L1 contents, and
// inclusivity. Property tests call it after random access sequences, and
// checked simulation runs lean on it, so it works directly off the indexed
// cache slabs (set-indexed l1.find/l2.find probes) rather than building a
// per-call map of holders: no allocation, and cost proportional to resident
// lines plus actual sharing.
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
		for c, m := 0, h.l2.sharers[i]; m != 0; c++ {
			if c >= len(h.l1) {
				return fmt.Errorf("line %#x directory sharers %b name nonexistent cores", line, h.l2.sharers[i])
			}
			if m&(1<<uint(c)) == 0 {
				continue
			}
			m &^= 1 << uint(c)
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
	// The redundant per-set occupancy counters must match the slabs exactly:
	// a drifted counter silently corrupts victim selection (install would
	// evict a live line while an empty way exists, or scan a full set).
	for c := range h.l1 {
		if err := checkFull("L1", h.l1[c].lines, h.l1[c].full, int(h.l1[c].assoc)); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
	}
	if err := checkFull("L2", h.l2.lines, h.l2.full, int(h.l2.assoc)); err != nil {
		return err
	}
	// The residency indexes must mirror the line slabs exactly — every other
	// check above probes residency through find, so a drifted index would
	// otherwise corrupt both the simulation and its own validation.
	for c := range h.l1 {
		if err := checkWayOf("L1", h.l1[c].lines, h.l1[c].wayOf); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
	}
	return checkWayOf("L2", h.l2.lines, h.l2.wayOf)
}

// checkWayOf verifies a cache's residency index against its line slab in
// both directions: every valid way is indexed at its line, and every index
// entry points at a way holding that line.
func checkWayOf(level string, lines []uint64, wayOf []int32) error {
	for w, line := range lines {
		if line == invalidLine {
			continue
		}
		got := -1
		if li := line >> lineShift; li < uint64(len(wayOf)) {
			got = int(wayOf[li]) - 1
		}
		if got != w {
			return fmt.Errorf("%s line %#x in way %d but residency index says %d", level, line, w, got)
		}
	}
	for li, w := range wayOf {
		if w == 0 {
			continue
		}
		if int(w) > len(lines) || lines[w-1] != uint64(li)<<lineShift {
			return fmt.Errorf("%s residency index maps line %#x to way %d holding %#x", level, uint64(li)<<lineShift, w-1, lines[w-1])
		}
	}
	return nil
}

// checkFull verifies a cache's per-set valid-way counters against its line
// slab.
func checkFull(level string, lines []uint64, full []uint16, assoc int) error {
	for set := range full {
		n := 0
		for _, l := range lines[set*assoc : (set+1)*assoc] {
			if l != invalidLine {
				n++
			}
		}
		if int(full[set]) != n {
			return fmt.Errorf("%s set %d occupancy counter %d != actual %d valid ways", level, set, full[set], n)
		}
	}
	return nil
}
