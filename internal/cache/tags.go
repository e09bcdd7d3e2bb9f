package cache

import "fmt"

// tagSet is one hardware thread's Conditional Access state (paper Section
// III): the tag bits it holds on its L1's lines and its accessRevokedBit.
// Like the residency index, the tags are a table over line numbers rather
// than a bit per way: line li is tagged iff stamp[li] == era. A probe, tag
// or untag is one compare and one store, and untagging everything — once per
// data-structure operation — is an era bump with no clearing pass. A stamp
// of 0 never matches (era starts at 1 and only grows), so fresh table growth
// needs no initialization.
type tagSet struct {
	stamp []uint64
	// gen[li] is the allocation generation Check mode recorded when li was
	// tagged, meaningful only while stamp[li] == era on a checked machine.
	// Package core compares it to the line's current one (Theorem 7).
	gen         []uint32
	era         uint64
	count       int // live tags
	revoked     bool
	revocations uint64 // clear-to-set transitions of revoked
	counts      Counts
}

// Counts is one hardware thread's Conditional Access instruction counts
// since New or Reset, which the simulator's instructions keep.
type Counts struct {
	CReads, CReadFails, CWrites, CWriteFails uint64
	Untagged                                 uint64 // cwrite failures on an untagged line
	MaxTagSet                                int    // the most lines the tag set has held
}

// Probe reports whether addr's line is in the thread's tag set.
func (p *Port) Probe(addr uint64) bool {
	t := p.tags
	li := addr >> lineShift
	return li < uint64(len(t.stamp)) && t.stamp[li] == t.era
}

// TagGen returns the allocation generation SetTagGen recorded on addr's
// line. The line must be tagged (Probe).
func (p *Port) TagGen(addr uint64) uint32 { return p.tags.gen[addr>>lineShift] }

// SetTagGen records allocation generation gen on addr's line, which must be
// tagged.
func (p *Port) SetTagGen(addr uint64, gen uint32) { p.tags.gen[addr>>lineShift] = gen }

// Tag adds addr's line, which must be resident in the thread's L1 and not
// yet tagged, to the tag set.
func (p *Port) Tag(addr uint64) {
	t := p.tags
	li := addr >> lineShift
	if li >= uint64(len(t.stamp)) {
		t.growTo(li)
	}
	t.stamp[li] = t.era
	t.count++
}

// Untag removes addr's line from the tag set. Untagging an untagged line is
// a no-op.
func (p *Port) Untag(addr uint64) {
	t := p.tags
	if li := addr >> lineShift; li < uint64(len(t.stamp)) && t.stamp[li] == t.era {
		t.stamp[li] = 0
		t.count--
	}
}

// UntagAll empties the tag set and clears the accessRevokedBit.
func (p *Port) UntagAll() {
	t := p.tags
	t.era++
	t.count = 0
	t.revoked = false
}

// Revoke empties the tag set and sets the accessRevokedBit. The OS does this
// to a thread it switches out (paper Section III), rather than track
// invalidations on its behalf.
func (p *Port) Revoke() {
	t := p.tags
	t.era++
	t.count = 0
	t.revoke()
}

// Revoked reports the thread's accessRevokedBit.
func (p *Port) Revoked() bool { return p.tags.revoked }

// TagCount returns the number of lines in the thread's tag set.
func (p *Port) TagCount() int { return p.tags.count }

// Counts returns the thread's instruction counts, for the instructions.
func (p *Port) Counts() *Counts { return &p.tags.counts }

// Revocations returns how many times any thread's accessRevokedBit went from
// clear to set since New or Reset.
func (h *Hierarchy) Revocations() uint64 {
	var n uint64
	for t := range h.tags {
		n += h.tags[t].revocations
	}
	return n
}

func (t *tagSet) revoke() {
	if !t.revoked {
		t.revoked = true
		t.revocations++
	}
}

// lose drops line index li, whose L1 copy is leaving or being written by an
// SMT sibling, and revokes access if it was tagged.
func (t *tagSet) lose(li uint64) {
	if li < uint64(len(t.stamp)) && t.stamp[li] == t.era {
		t.stamp[li] = 0
		t.count--
		t.revoke()
	}
}

// growTo extends the stamp and gen tables to cover line index li. The
// simulated heap only grows, so this amortizes to nothing after warm-up.
func (t *tagSet) growTo(li uint64) {
	n := uint64(64)
	for n <= li {
		n *= 2
	}
	ns := make([]uint64, n)
	copy(ns, t.stamp)
	ng := make([]uint32, n)
	copy(ng, t.gen)
	t.stamp = ns
	t.gen = ng
}

// reset empties the tag set, clears the accessRevokedBit and zeroes the
// revocation and instruction counts, keeping the tables' capacity.
func (t *tagSet) reset() {
	t.era++
	t.count = 0
	t.revoked = false
	t.revocations = 0
	t.counts = Counts{}
}

// revokeLine drops line from the tag sets of every hardware thread of
// physical core l1i, whose L1 copy of line is leaving: the tag bit lives on
// the line.
func (h *Hierarchy) revokeLine(l1i int, line uint64) {
	li := line >> lineShift
	for t := l1i * h.smt; t < (l1i+1)*h.smt; t++ {
		h.tags[t].lose(li)
	}
}

// revokeSiblings drops line from the tag sets of tid's SMT siblings (not
// tid's own): tid's write leaves the line resident in their shared L1, but
// changed.
func (h *Hierarchy) revokeSiblings(tid int, line uint64) {
	if h.smt == 1 {
		return
	}
	li := line >> lineShift
	base := tid - tid%h.smt
	for t := base; t < base+h.smt; t++ {
		if t != tid {
			h.tags[t].lose(li)
		}
	}
}

// check verifies that every tagged line is resident in l1, the thread's L1,
// and that the tag count matches the table.
func (t *tagSet) check(l1 *l1cache) error {
	n := 0
	for li, s := range t.stamp {
		if s != t.era {
			continue
		}
		n++
		if line := uint64(li) << lineShift; l1.find(line) < 0 {
			return fmt.Errorf("line %#x is tagged but not in the L1", line)
		}
	}
	if n != t.count {
		return fmt.Errorf("tag count %d != %d tagged lines", t.count, n)
	}
	return nil
}
