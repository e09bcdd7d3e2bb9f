package hmlist

import (
	"condaccess/internal/ds/layout"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

// Guarded is the classic CAS-based Harris–Michael list over a reclamation
// scheme. Traversals help unlink marked nodes and retire them.
type Guarded struct {
	// Head is the immortal head sentinel.
	Head mem.Addr
	// R is the reclamation scheme.
	R smr.Reclaimer
	// Helped counts nodes unlinked by helping traversals.
	Helped uint64
}

// NewGuarded builds an empty Harris–Michael list on space reclaimed by r.
func NewGuarded(space *mem.Space, r smr.Reclaimer) *Guarded {
	return &Guarded{Head: NewSentinels(space), R: r}
}

// search locates pred/curr with pred.key < key <= curr.key, snipping marked
// nodes (Michael's algorithm). Protection uses three rotating slots; for the
// validating schemes (hp/he) the Protect re-read of pred's next field is the
// standard Michael validation — a marked or changed pred restarts.
func (l *Guarded) search(c *sim.Ctx, key uint64) (pred, curr, currNext, currKey uint64) {
retry:
	pred = l.Head
	predSlot := -1
	pn := c.Read(pred + layout.OffNext) // head's next is never marked
	curr = clearMark(pn)
	currSlot := 0
	if !l.R.Protect(c, currSlot, curr, pred+layout.OffNext) {
		c.CountRetry()
		goto retry
	}
	for {
		cn := c.Read(curr + layout.OffNext)
		if marked(cn) {
			// Help unlink. The CAS requires pred's next to still be exactly
			// curr (unmarked), which also proves pred itself was not snipped.
			if !c.CAS(pred+layout.OffNext, curr, clearMark(cn)) {
				c.CountRetry()
				goto retry
			}
			l.Helped++
			l.R.Retire(c, curr)
			next := clearMark(cn)
			ns := freeSlot(predSlot, currSlot)
			if !l.R.Protect(c, ns, next, pred+layout.OffNext) {
				c.CountRetry()
				goto retry
			}
			curr, currSlot = next, ns
			continue
		}
		ck := c.Read(curr + layout.OffKey)
		if ck >= key {
			return pred, curr, cn, ck
		}
		next := clearMark(cn)
		ns := freeSlot(predSlot, currSlot)
		if !l.R.Protect(c, ns, next, curr+layout.OffNext) {
			c.CountRetry()
			goto retry
		}
		// For hp/he the pointer re-read in Protect proved curr.next still
		// names next; curr being unmarked then (the low bit of that very
		// word) makes next reachable, so no extra mark check is needed —
		// Harris–Michael encodes the mark in the validated word itself.
		pred, predSlot = curr, currSlot
		curr, currSlot = next, ns
	}
}

func freeSlot(a, b int) int {
	for s := 0; s < 3; s++ {
		if s != a && s != b {
			return s
		}
	}
	panic("hmlist: no free slot")
}

// Contains reports whether key is in the set.
func (l *Guarded) Contains(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	l.R.BeginOp(c)
	defer l.R.EndOp(c)
	_, _, _, ck := l.search(c, key)
	return ck == key
}

// Insert adds key, returning false if present.
func (l *Guarded) Insert(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	l.R.BeginOp(c)
	defer l.R.EndOp(c)
	n := l.R.Alloc(c)
	c.Write(n+layout.OffKey, key)
	for {
		pred, curr, _, ck := l.search(c, key)
		if ck == key {
			c.Free(n) // never published
			return false
		}
		c.Write(n+layout.OffNext, curr)
		if c.CAS(pred+layout.OffNext, curr, n) { // LP
			return true
		}
		c.CountRetry()
	}
}

// Delete removes key, returning false if absent.
func (l *Guarded) Delete(c *sim.Ctx, key uint64) bool {
	checkKey(key)
	l.R.BeginOp(c)
	defer l.R.EndOp(c)
	for {
		pred, curr, cn, ck := l.search(c, key)
		if ck != key {
			return false
		}
		if !c.CAS(curr+layout.OffNext, cn, cn|markBit) { // LP (logical delete)
			c.CountRetry()
			continue
		}
		// Physical unlink: on success retire here; on failure a helping
		// traversal will snip and retire.
		if c.CAS(pred+layout.OffNext, curr, clearMark(cn)) {
			l.R.Retire(c, curr)
		}
		return true
	}
}
