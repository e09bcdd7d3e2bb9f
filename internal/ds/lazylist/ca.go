package lazylist

import (
	"condaccess/internal/core"
	"condaccess/internal/ds/layout"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// CAList is the Conditional Access lazy list of the paper's Algorithm 3.
// Deleted nodes are freed immediately: the list's footprint equals its live
// size, as in Figure 3.
type CAList struct {
	// Head is the immortal head sentinel.
	Head mem.Addr
}

// NewCA builds an empty Conditional Access lazy list on space.
func NewCA(space *mem.Space) *CAList {
	return &CAList{Head: NewSentinels(space)}
}

// locate is Algorithm 3's LOCATE: it returns tagged pred and curr with
// pred.key < key <= curr.key, where curr was unmarked when tagged (DII) and
// both were reachable. It retries internally on any conditional-access
// failure, so it always succeeds.
//
// Hand-over-hand untagging (untagOne on nodes behind pred) keeps the tag set
// at two nodes, the minimum needed to prove reachability — without it every
// traversed node would stay tagged and any update anywhere in the list would
// revoke the reader (Section IV-B's serialization problem).
func (l *CAList) locate(c *sim.Ctx, key uint64) (pred, curr, currKey uint64) {
	spins := 0
retry:
	if spins++; spins > core.MaxSpuriousRetries {
		panic(core.ErrLivelock("lazylist.locate"))
	}
	c.UntagAll()
	pred = l.Head
	// Tag head and validate it (head is never marked, but the cread is what
	// tags the line; Algorithm 3 line 11).
	m, ok := c.CRead(pred + layout.OffMark)
	if !ok || m != 0 {
		c.CountRetry()
		goto retry
	}
	curr, ok = c.CRead(pred + layout.OffNext)
	if !ok {
		c.CountRetry()
		goto retry
	}
	// VALIDATE(curr): the cread of the mark both tags curr and checks that
	// it was unmarked — hence reachable (Lemma 5) — when tagged.
	m, ok = c.CRead(curr + layout.OffMark)
	if !ok || m != 0 {
		c.CountRetry()
		goto retry
	}
	currKey, ok = c.CRead(curr + layout.OffKey)
	if !ok {
		c.CountRetry()
		goto retry
	}
	for currKey < key {
		c.UntagOne(pred)
		pred = curr
		curr, ok = c.CRead(pred + layout.OffNext)
		if !ok {
			c.CountRetry()
			goto retry
		}
		m, ok = c.CRead(curr + layout.OffMark)
		if !ok || m != 0 {
			c.CountRetry()
			goto retry
		}
		currKey, ok = c.CRead(curr + layout.OffKey)
		if !ok {
			c.CountRetry()
			goto retry
		}
	}
	return pred, curr, currKey
}

// Contains reports whether key is in the set (Algorithm 3, CONTAIN).
func (l *CAList) Contains(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	_, _, currKey := l.locate(c, key)
	c.UntagAll()
	return currKey == key
}

// Insert adds key to the set, returning false if it was already present
// (Algorithm 3, INSERT).
func (l *CAList) Insert(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	for {
		pred, curr, currKey := l.locate(c, key)
		if currKey == key {
			c.UntagAll()
			return false
		}
		if !core.TryLock(c, pred+layout.OffLock) {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if !core.TryLock(c, curr+layout.OffLock) {
			core.Unlock(c, pred+layout.OffLock)
			c.CountRetry()
			c.UntagAll()
			continue
		}
		// Both nodes locked: the successful cwrites prove neither changed
		// since it was tagged, so pred is unmarked and still points to curr.
		// Plain writes are safe inside the critical section.
		n := c.AllocNode()
		c.Write(n+layout.OffKey, key)
		c.Write(n+layout.OffNext, curr)
		c.Write(pred+layout.OffNext, n) // LP
		core.Unlock(c, pred+layout.OffLock)
		core.Unlock(c, curr+layout.OffLock)
		c.UntagAll()
		return true
	}
}

// Delete removes key from the set and frees its node immediately, returning
// false if it was absent (Algorithm 3, DELETE).
func (l *CAList) Delete(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	for {
		pred, curr, currKey := l.locate(c, key)
		if currKey != key {
			c.UntagAll()
			return false
		}
		if !core.TryLock(c, pred+layout.OffLock) {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if !core.TryLock(c, curr+layout.OffLock) {
			core.Unlock(c, pred+layout.OffLock)
			c.CountRetry()
			c.UntagAll()
			continue
		}
		c.Write(curr+layout.OffMark, 1) // LP; also the reclaimer's
		// mandatory pre-free store: it revokes every thread with curr tagged.
		next := c.Read(curr + layout.OffNext)
		c.Write(pred+layout.OffNext, next)
		core.Unlock(c, pred+layout.OffLock)
		core.Unlock(c, curr+layout.OffLock)
		c.UntagAll()
		c.Free(curr) // immediate reclamation
		return true
	}
}
