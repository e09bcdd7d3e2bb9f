package extbst

import (
	"condaccess/internal/core"
	"condaccess/internal/ds/layout"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// CATree is the Conditional Access external BST: searches descend with
// creads keeping at most three nodes (grandparent, parent, current) tagged,
// hand-over-hand; updates take Conditional Access try-locks; deletes mark
// the unlinked internal+leaf pair and free both immediately.
type CATree struct {
	// Root is the immortal sentinel root.
	Root mem.Addr
}

// NewCA builds an empty Conditional Access tree on space.
func NewCA(space *mem.Space) *CATree {
	return &CATree{Root: newTreeSentinels(space)}
}

// locate descends to the leaf for key, returning tagged (gp, p, leaf) and
// the leaf key. gp is 0 when p is the root. Every returned node was
// unmarked when tagged (DII) and reachable from its tagged parent (Lemma 5's
// inductive argument, applied to tree edges). Retries internally.
func (t *CATree) locate(c *sim.Ctx, key uint64) (gp, p, leaf, leafKey uint64) {
	spins := 0
retry:
	if spins++; spins > core.MaxSpuriousRetries {
		panic(core.ErrLivelock("extbst.locate"))
	}
	c.UntagAll()
	// Tag and validate the root (never marked; the cread tags it).
	if m, ok := c.CRead(t.Root + layout.OffMark); !ok || m != 0 {
		c.CountRetry()
		goto retry
	}
	gp, p = 0, 0
	for curr := t.Root; ; {
		left, ok := c.CRead(curr + layout.OffLeft)
		if !ok {
			c.CountRetry()
			goto retry
		}
		if left == 0 { // leaf
			lk, ok := c.CRead(curr + layout.OffKey)
			if !ok {
				c.CountRetry()
				goto retry
			}
			return gp, p, curr, lk
		}
		ckey, ok := c.CRead(curr + layout.OffKey)
		if !ok {
			c.CountRetry()
			goto retry
		}
		next := left
		if key >= ckey {
			if next, ok = c.CRead(curr + layout.OffRight); !ok {
				c.CountRetry()
				goto retry
			}
		}
		// Untag the outgoing great-grandparent before tagging the child so
		// the tag set never exceeds three lines (gp, p, curr) — the minimum
		// L1 associativity the descent can livelock below.
		if gp != 0 {
			c.UntagOne(gp)
		}
		// Tag the child and validate it was unmarked when tagged (DII).
		if m, ok := c.CRead(next + layout.OffMark); !ok || m != 0 {
			c.CountRetry()
			goto retry
		}
		gp, p = p, curr
		curr = next
	}
}

// Contains reports whether key is in the set.
func (t *CATree) Contains(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	_, _, _, leafKey := t.locate(c, key)
	c.UntagAll()
	return leafKey == key
}

// Insert adds key, returning false if present. The single try-lock on the
// parent suffices: its success proves the parent (and, via the shared
// accessRevokedBit, the tagged leaf) is unchanged since tagging, so the
// search-time child link and mark validations still hold.
func (t *CATree) Insert(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	for {
		_, p, leaf, leafKey := t.locate(c, key)
		if leafKey == key {
			c.UntagAll()
			return false
		}
		if !core.TryLock(c, p+layout.OffLock) {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		// Critical section: plain accesses are safe under the lock.
		newLeaf := c.AllocNode()
		c.Write(newLeaf+layout.OffKey, key)
		newInt := c.AllocNode()
		if key < leafKey {
			c.Write(newInt+layout.OffKey, leafKey)
			c.Write(newInt+layout.OffLeft, newLeaf)
			c.Write(newInt+layout.OffRight, leaf)
		} else {
			c.Write(newInt+layout.OffKey, key)
			c.Write(newInt+layout.OffLeft, leaf)
			c.Write(newInt+layout.OffRight, newLeaf)
		}
		if c.Read(p+layout.OffLeft) == leaf {
			c.Write(p+layout.OffLeft, newInt) // LP
		} else {
			c.Write(p+layout.OffRight, newInt) // LP
		}
		core.Unlock(c, p+layout.OffLock)
		c.UntagAll()
		return true
	}
}

// Delete removes key, unlinking its leaf and the leaf's parent and freeing
// both immediately, returning false if absent.
func (t *CATree) Delete(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	for {
		gp, p, leaf, leafKey := t.locate(c, key)
		if leafKey != key {
			c.UntagAll()
			return false
		}
		// A real leaf always has a grandparent: the root's children are
		// sentinel structures whose keys are never requested.
		if gp == 0 {
			panic("extbst: real leaf directly under root")
		}
		if !core.TryLock(c, gp+layout.OffLock) {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if !core.TryLock(c, p+layout.OffLock) {
			core.Unlock(c, gp+layout.OffLock)
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if !core.TryLock(c, leaf+layout.OffLock) {
			core.Unlock(c, gp+layout.OffLock)
			core.Unlock(c, p+layout.OffLock)
			c.CountRetry()
			c.UntagAll()
			continue
		}
		// All three locked: the successful cwrites prove gp -> p -> leaf is
		// intact and unmarked. Plain accesses below.
		pl := c.Read(p + layout.OffLeft)
		sibling := pl
		if pl == leaf {
			sibling = c.Read(p + layout.OffRight)
		}
		c.Write(p+layout.OffMark, 1)    // mark before unlink: the
		c.Write(leaf+layout.OffMark, 1) // reclaimer's mandatory stores
		if c.Read(gp+layout.OffLeft) == p {
			c.Write(gp+layout.OffLeft, sibling) // LP
		} else {
			c.Write(gp+layout.OffRight, sibling) // LP
		}
		core.Unlock(c, gp+layout.OffLock)
		core.Unlock(c, p+layout.OffLock)
		core.Unlock(c, leaf+layout.OffLock)
		c.UntagAll()
		c.Free(p) // immediate reclamation of both unlinked nodes
		c.Free(leaf)
		return true
	}
}
