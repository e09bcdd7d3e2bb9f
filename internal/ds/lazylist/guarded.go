package lazylist

import (
	"condaccess/internal/ds/layout"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

// Guarded is the classic lazy list paired with a safe-memory-reclamation
// scheme. Deleted nodes are retired to the reclaimer, which frees them in
// batches once no reservation can reach them — the deferred-reclamation
// behaviour whose footprint Figure 3 contrasts with Conditional Access.
type Guarded struct {
	// Head is the immortal head sentinel.
	Head mem.Addr
	// R is the reclamation scheme.
	R smr.Reclaimer
}

// NewGuarded builds an empty lazy list on space reclaimed by r.
func NewGuarded(space *mem.Space, r smr.Reclaimer) *Guarded {
	return &Guarded{Head: NewSentinels(space), R: r}
}

// spinLock acquires a node lock with a CAS spin loop. Progress relies on
// lock holders finishing: the lazy list acquires locks in list order, so
// there are no cycles. The spun-on node is protected by the caller, so it
// cannot be freed mid-spin.
func spinLock(c *sim.Ctx, addr mem.Addr) {
	for !c.CAS(addr, 0, 1) {
		c.Work(12) // backoff: roughly a pause loop iteration
	}
}

func unlock(c *sim.Ctx, addr mem.Addr) { c.Write(addr, 0) }

// find locates pred/curr with pred.key < key <= curr.key, maintaining
// reclaimer protection hand-over-hand across three slots. On a failed
// protection it restarts from the head internally, so it always succeeds.
// The returned slot numbers identify which protections cover pred and curr;
// they remain published until the operation ends.
func (l *Guarded) find(c *sim.Ctx, key uint64) (pred, curr, currKey uint64) {
	validating := l.R.Validating()
retry:
	pred = l.Head
	predSlot := -1 // head is immortal: no protection needed
	curr = c.Read(pred + layout.OffNext)
	currSlot := 0
	if !l.R.Protect(c, currSlot, curr, pred+layout.OffNext) {
		c.CountRetry()
		goto retry
	}
	// The head is never marked, so a validated protect from the head needs
	// no mark check.
	for {
		currKey = c.Read(curr + layout.OffKey)
		if currKey >= key {
			return pred, curr, currKey
		}
		next := c.Read(curr + layout.OffNext)
		ns := freeSlot(predSlot, currSlot)
		if !l.R.Protect(c, ns, next, curr+layout.OffNext) {
			c.CountRetry()
			goto retry
		}
		if validating && c.Read(curr+layout.OffMark) != 0 {
			// For hp/he the successful pointer re-read only proves next was
			// linked from curr; curr being unmarked at this later instant
			// proves curr — and therefore next — was reachable after the
			// hazard was published, so next cannot have been retired before.
			c.CountRetry()
			goto retry
		}
		pred, predSlot = curr, currSlot
		curr, currSlot = next, ns
	}
}

// freeSlot returns a protection slot in {0,1,2} distinct from a and b.
func freeSlot(a, b int) int {
	for s := 0; s < 3; s++ {
		if s != a && s != b {
			return s
		}
	}
	panic("lazylist: no free slot")
}

// Contains reports whether key is in the set. Like the original lazy list it
// is wait-free with respect to locks: no locking, one marked check.
func (l *Guarded) Contains(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	l.R.BeginOp(c)
	defer l.R.EndOp(c)
	_, curr, currKey := l.find(c, key)
	if currKey != key {
		return false
	}
	return c.Read(curr+layout.OffMark) == 0
}

// Insert adds key, returning false if present.
func (l *Guarded) Insert(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	l.R.BeginOp(c)
	defer l.R.EndOp(c)
	for {
		pred, curr, currKey := l.find(c, key)
		if currKey == key {
			// Unsuccessful insert linearizes like a contains, but only if
			// the matching node is unmarked; a marked match is a delete in
			// flight, so retraverse. (The CA variant gets this for free:
			// its locate never returns a marked node.)
			if c.Read(curr+layout.OffMark) == 0 {
				return false
			}
			c.CountRetry()
			continue
		}
		spinLock(c, pred+layout.OffLock)
		spinLock(c, curr+layout.OffLock)
		if c.Read(pred+layout.OffMark) == 0 &&
			c.Read(curr+layout.OffMark) == 0 &&
			c.Read(pred+layout.OffNext) == curr {
			n := l.R.Alloc(c)
			c.Write(n+layout.OffKey, key)
			c.Write(n+layout.OffNext, curr)
			c.Write(pred+layout.OffNext, n) // LP
			unlock(c, pred+layout.OffLock)
			unlock(c, curr+layout.OffLock)
			return true
		}
		unlock(c, pred+layout.OffLock)
		unlock(c, curr+layout.OffLock)
		c.CountRetry()
	}
}

// Delete removes key and retires its node, returning false if absent.
func (l *Guarded) Delete(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	l.R.BeginOp(c)
	defer l.R.EndOp(c)
	for {
		pred, curr, currKey := l.find(c, key)
		if currKey != key {
			return false
		}
		spinLock(c, pred+layout.OffLock)
		spinLock(c, curr+layout.OffLock)
		if c.Read(pred+layout.OffMark) == 0 &&
			c.Read(curr+layout.OffMark) == 0 &&
			c.Read(pred+layout.OffNext) == curr {
			c.Write(curr+layout.OffMark, 1) // LP (logical delete)
			next := c.Read(curr + layout.OffNext)
			c.Write(pred+layout.OffNext, next)
			unlock(c, pred+layout.OffLock)
			unlock(c, curr+layout.OffLock)
			l.R.Retire(c, curr)
			return true
		}
		unlock(c, pred+layout.OffLock)
		unlock(c, curr+layout.OffLock)
		c.CountRetry()
	}
}
