package hmlist

import (
	"condaccess/internal/core"
	"condaccess/internal/ds/layout"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// CAList is the Conditional Access Harris–Michael lock-free list.
type CAList struct {
	// Head is the immortal head sentinel.
	Head mem.Addr
	// Helped counts marked nodes unlinked (and freed) by traversals on
	// behalf of other threads' deletes.
	Helped uint64
}

// NewCA builds an empty Conditional Access Harris–Michael list on space.
func NewCA(space *mem.Space) *CAList {
	return &CAList{Head: NewSentinels(space)}
}

// search locates pred (tagged, unmarked when tagged) and curr (tagged,
// unmarked when tagged) with pred.key < key <= curr.key, unlinking — and
// immediately freeing — any marked nodes it passes. currNext is curr's next
// pointer as read while tagging it (unmarked). Retries internally.
func (l *CAList) search(c *sim.Ctx, key uint64) (pred, curr, currNext, currKey uint64) {
	spins := 0
retry:
	if spins++; spins > core.MaxSpuriousRetries {
		panic(core.ErrLivelock("hmlist.search"))
	}
	c.UntagAll()
	pred = l.Head
	// Tag the head via its next field; the head is never marked.
	pn, ok := c.CRead(pred + layout.OffNext)
	if !ok {
		c.CountRetry()
		goto retry
	}
	curr = clearMark(pn)
	for {
		// Tagging cread of curr. The mark bit in the next field is the DII
		// validation: marked means logically deleted.
		cn, ok := c.CRead(curr + layout.OffNext)
		if !ok {
			c.CountRetry()
			goto retry
		}
		if marked(cn) {
			// Help: unlink curr from pred and free it. pred is tagged, so
			// the cwrite succeeds only if pred is untouched since its cread
			// — in which case this thread is the unique unlinker.
			if !c.CWrite(pred+layout.OffNext, clearMark(cn)) {
				c.CountRetry()
				goto retry
			}
			l.Helped++
			c.Free(curr) // immediate reclamation by the helper
			curr = clearMark(cn)
			continue
		}
		ck, ok := c.CRead(curr + layout.OffKey)
		if !ok {
			c.CountRetry()
			goto retry
		}
		if ck >= key {
			return pred, curr, cn, ck
		}
		c.UntagOne(pred)
		pred = curr
		curr = clearMark(cn)
	}
}

// Contains reports whether key is in the set.
func (l *CAList) Contains(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	_, _, _, ck := l.search(c, key)
	c.UntagAll()
	return ck == key
}

// Insert adds key, returning false if present. The node is allocated once
// and re-pointed across retries; if the key turns out to be present the
// still-private node is freed.
func (l *CAList) Insert(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	n := c.AllocNode()
	c.Write(n+layout.OffKey, key)
	for {
		pred, curr, _, ck := l.search(c, key)
		if ck == key {
			c.UntagAll()
			c.Free(n) // never published: private free needs no protocol
			return false
		}
		c.Write(n+layout.OffNext, curr)
		// The link cwrite replaces Harris–Michael's CAS(pred.next, curr, n):
		// success proves pred was untouched since tagging, so it is still
		// unmarked and still points at curr.
		if c.CWrite(pred+layout.OffNext, n) { // LP
			c.UntagAll()
			return true
		}
		c.CountRetry()
		c.UntagAll()
	}
}

// Delete removes key, returning false if absent. The logical delete is the
// mark cwrite; the unlink either succeeds here (node freed immediately) or
// is left to a helping traversal.
func (l *CAList) Delete(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	for {
		pred, curr, cn, ck := l.search(c, key)
		if ck != key {
			c.UntagAll()
			return false
		}
		// Logical delete: mark curr's next pointer. Replaces
		// CAS(curr.next, cn, cn|mark); revocation subsumes the comparison.
		if !c.CWrite(curr+layout.OffNext, cn|markBit) { // LP
			c.CountRetry()
			c.UntagAll()
			continue
		}
		// Physical unlink: best effort. On success we are the unique
		// unlinker and free immediately; on failure a helper will.
		if c.CWrite(pred+layout.OffNext, cn) {
			c.UntagAll()
			c.Free(curr)
		} else {
			c.UntagAll()
		}
		return true
	}
}
