package extbst

import (
	"condaccess/internal/ds/layout"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

// Guarded is the lock-based external BST paired with a reclamation scheme.
// Searches maintain reclaimer protection over (grandparent, parent, current)
// hand-over-hand across four slots; updates lock root-to-leaf (an order that
// ancestry changes never invert, so there are no lock cycles), validate, and
// retire unlinked nodes.
type Guarded struct {
	// Root is the immortal sentinel root.
	Root mem.Addr
	// R is the reclamation scheme.
	R smr.Reclaimer
}

// NewGuarded builds an empty tree on space reclaimed by r.
func NewGuarded(space *mem.Space, r smr.Reclaimer) *Guarded {
	return &Guarded{Root: newTreeSentinels(space), R: r}
}

func spinLock(c *sim.Ctx, addr mem.Addr) {
	for !c.CAS(addr, 0, 1) {
		c.Work(12)
	}
}

func unlock(c *sim.Ctx, addr mem.Addr) { c.Write(addr, 0) }

// find descends to the leaf for key with hand-over-hand protection,
// returning (gp, p, leaf, leafKey). gp is 0 when p is the root. Protection
// slots 0..3 rotate over gp/p/curr/next; the root needs none (immortal).
func (t *Guarded) find(c *sim.Ctx, key uint64) (gp, p, leaf, leafKey uint64) {
	validating := t.R.Validating()
retry:
	gp, p = 0, 0
	gpSlot, pSlot, currSlot := -1, -1, -1
	curr := t.Root
	for {
		left := c.Read(curr + layout.OffLeft)
		if left == 0 { // leaf
			return gp, p, curr, c.Read(curr + layout.OffKey)
		}
		ckey := c.Read(curr + layout.OffKey)
		next := left
		src := curr + layout.OffLeft
		if key >= ckey {
			next = c.Read(curr + layout.OffRight)
			src = curr + layout.OffRight
		}
		ns := freeSlot4(gpSlot, pSlot, currSlot)
		if !t.R.Protect(c, ns, next, src) {
			c.CountRetry()
			goto retry
		}
		if validating && curr != t.Root && c.Read(curr+layout.OffMark) != 0 {
			// hp/he: an unmarked curr at this instant proves next was
			// reachable after the hazard publish (see lazylist.Guarded.find).
			c.CountRetry()
			goto retry
		}
		gp, gpSlot = p, pSlot
		p, pSlot = curr, currSlot
		curr, currSlot = next, ns
	}
}

// freeSlot4 returns a slot in {0,1,2,3} distinct from a, b and c.
func freeSlot4(a, b, c int) int {
	for s := 0; s < 4; s++ {
		if s != a && s != b && s != c {
			return s
		}
	}
	panic("extbst: no free slot")
}

// Contains reports whether key is in the set.
func (t *Guarded) Contains(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	t.R.BeginOp(c)
	defer t.R.EndOp(c)
	_, _, leaf, leafKey := t.find(c, key)
	if leafKey != key {
		return false
	}
	return c.Read(leaf+layout.OffMark) == 0
}

// Insert adds key, returning false if present.
func (t *Guarded) Insert(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	t.R.BeginOp(c)
	defer t.R.EndOp(c)
	for {
		_, p, leaf, leafKey := t.find(c, key)
		if leafKey == key {
			if c.Read(leaf+layout.OffMark) == 0 {
				return false
			}
			c.CountRetry() // a delete of the same key is mid-flight
			continue
		}
		spinLock(c, p+layout.OffLock)
		pl := c.Read(p + layout.OffLeft)
		pr := c.Read(p + layout.OffRight)
		if c.Read(p+layout.OffMark) == 0 && (pl == leaf || pr == leaf) {
			newLeaf := t.R.Alloc(c)
			c.Write(newLeaf+layout.OffKey, key)
			newInt := t.R.Alloc(c)
			if key < leafKey {
				c.Write(newInt+layout.OffKey, leafKey)
				c.Write(newInt+layout.OffLeft, newLeaf)
				c.Write(newInt+layout.OffRight, leaf)
			} else {
				c.Write(newInt+layout.OffKey, key)
				c.Write(newInt+layout.OffLeft, leaf)
				c.Write(newInt+layout.OffRight, newLeaf)
			}
			if pl == leaf {
				c.Write(p+layout.OffLeft, newInt) // LP
			} else {
				c.Write(p+layout.OffRight, newInt) // LP
			}
			unlock(c, p+layout.OffLock)
			return true
		}
		unlock(c, p+layout.OffLock)
		c.CountRetry()
	}
}

// Delete removes key, retiring the unlinked leaf and its parent, returning
// false if absent.
func (t *Guarded) Delete(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	t.R.BeginOp(c)
	defer t.R.EndOp(c)
	for {
		gp, p, leaf, leafKey := t.find(c, key)
		if leafKey != key {
			return false
		}
		if gp == 0 {
			panic("extbst: real leaf directly under root")
		}
		spinLock(c, gp+layout.OffLock)
		spinLock(c, p+layout.OffLock)
		spinLock(c, leaf+layout.OffLock)
		gl := c.Read(gp + layout.OffLeft)
		gr := c.Read(gp + layout.OffRight)
		pl := c.Read(p + layout.OffLeft)
		pr := c.Read(p + layout.OffRight)
		if c.Read(gp+layout.OffMark) == 0 && (gl == p || gr == p) &&
			c.Read(p+layout.OffMark) == 0 && (pl == leaf || pr == leaf) &&
			c.Read(leaf+layout.OffMark) == 0 {
			sibling := pl
			if pl == leaf {
				sibling = pr
			}
			c.Write(p+layout.OffMark, 1)
			c.Write(leaf+layout.OffMark, 1)
			if gl == p {
				c.Write(gp+layout.OffLeft, sibling) // LP
			} else {
				c.Write(gp+layout.OffRight, sibling) // LP
			}
			unlock(c, gp+layout.OffLock)
			unlock(c, p+layout.OffLock)
			unlock(c, leaf+layout.OffLock)
			t.R.Retire(c, p)
			t.R.Retire(c, leaf)
			return true
		}
		unlock(c, gp+layout.OffLock)
		unlock(c, p+layout.OffLock)
		unlock(c, leaf+layout.OffLock)
		c.CountRetry()
	}
}
