// Package queue implements the Michael–Scott unbounded FIFO queue — the
// second "single write per update" structure the paper reports implementing
// (Section IV-A cites Michael & Scott alongside the Treiber stack) — in the
// usual two variants:
//
//   - CA: every read is a cread, every CAS a cwrite; the dequeued dummy is
//     freed immediately. Lagging tails are helped with a cwrite, which
//     either succeeds or fails because someone else already swung it.
//   - Guarded: the classic M&S queue with a pluggable reclamation scheme.
//
// The head and tail pointers live on separate immortal lines to avoid false
// sharing between enqueuers and dequeuers.
package queue

import (
	"condaccess/internal/core"
	"condaccess/internal/ds/layout"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

// CA is a Conditional Access Michael–Scott queue.
type CA struct {
	headAddr mem.Addr
	tailAddr mem.Addr
}

// NewCA builds an empty queue (one dummy node) on space.
func NewCA(space *mem.Space) *CA {
	q := &CA{headAddr: space.AllocInfra(), tailAddr: space.AllocInfra()}
	dummy := space.AllocNode() // freed by the dequeue that passes it
	space.Write(q.headAddr, dummy)
	space.Write(q.tailAddr, dummy)
	return q
}

// Enqueue appends key.
func (q *CA) Enqueue(c *sim.Ctx, key uint64) {
	n := c.AllocNode()
	c.Write(n+layout.OffKey, key)
	for spins := 0; ; spins++ {
		if spins > core.MaxSpuriousRetries {
			panic(core.ErrLivelock("queue.Enqueue"))
		}
		t, ok := c.CRead(q.tailAddr) // tags the tail-pointer line
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		next, ok := c.CRead(t + layout.OffNext) // tags node t
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if next != 0 {
			// Tail lags: help swing it. Success and failure both mean the
			// tail has moved on; re-read either way.
			c.CWrite(q.tailAddr, next)
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if !c.CWrite(t+layout.OffNext, n) { // LP
			c.CountRetry()
			c.UntagAll()
			continue
		}
		// Linked. Swing the tail; if this fails, the revocation means
		// another thread observed the lag and helped.
		c.CWrite(q.tailAddr, n)
		c.UntagAll()
		return
	}
}

// Dequeue removes and returns the oldest key, freeing the outgoing dummy
// node immediately. ok=false means the queue was empty.
func (q *CA) Dequeue(c *sim.Ctx) (key uint64, ok bool) {
	for spins := 0; ; spins++ {
		if spins > core.MaxSpuriousRetries {
			panic(core.ErrLivelock("queue.Dequeue"))
		}
		h, ok := c.CRead(q.headAddr) // tags the head-pointer line
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		next, ok := c.CRead(h + layout.OffNext) // tags node h
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if next == 0 {
			c.UntagAll()
			return 0, false
		}
		// Keep the tail from pointing at the node we are about to free.
		t, ok2 := c.CRead(q.tailAddr)
		if !ok2 {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if t == h {
			c.CWrite(q.tailAddr, next) // help; outcome re-checked on retry
			c.CountRetry()
			c.UntagAll()
			continue
		}
		// Read the value before unlinking (after the swing h is recycled).
		key, ok = c.CRead(next + layout.OffKey)
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if !c.CWrite(q.headAddr, next) { // LP
			c.CountRetry()
			c.UntagAll()
			continue
		}
		c.UntagAll()
		// Safe to free immediately: every thread holding h tagged also
		// tagged the head (or tail) pointer line, which our cwrite (or the
		// helped swing) just invalidated.
		c.Free(h)
		return key, true
	}
}

// Peek returns the oldest key without removing it — a genuine front read:
// two creads down the head chain and no writes, so (unlike the historical
// dequeue+enqueue pair the stationary harness used for the queue's read
// share) it cannot contend with other threads' linearization points.
// ok=false means the queue was empty.
func (q *CA) Peek(c *sim.Ctx) (key uint64, ok bool) {
	for spins := 0; ; spins++ {
		if spins > core.MaxSpuriousRetries {
			panic(core.ErrLivelock("queue.Peek"))
		}
		h, ok := c.CRead(q.headAddr) // tags the head-pointer line
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		next, ok := c.CRead(h + layout.OffNext) // tags node h
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		if next == 0 {
			c.UntagAll()
			return 0, false
		}
		key, ok = c.CRead(next + layout.OffKey)
		if !ok {
			c.CountRetry()
			c.UntagAll()
			continue
		}
		c.UntagAll()
		return key, true
	}
}

// Guarded is the classic Michael–Scott queue with deferred reclamation.
type Guarded struct {
	headAddr mem.Addr
	tailAddr mem.Addr
	r        smr.Reclaimer
}

// NewGuarded builds an empty queue on space reclaimed by r.
func NewGuarded(space *mem.Space, r smr.Reclaimer) *Guarded {
	q := &Guarded{headAddr: space.AllocInfra(), tailAddr: space.AllocInfra(), r: r}
	dummy := space.AllocNode()
	space.Write(q.headAddr, dummy)
	space.Write(q.tailAddr, dummy)
	return q
}

// Reclaimer returns the queue's reclamation scheme.
func (q *Guarded) Reclaimer() smr.Reclaimer { return q.r }

// Enqueue appends key.
func (q *Guarded) Enqueue(c *sim.Ctx, key uint64) {
	n := q.r.Alloc(c)
	c.Write(n+layout.OffKey, key)
	q.r.BeginOp(c)
	defer q.r.EndOp(c)
	for {
		t := c.Read(q.tailAddr)
		if !q.r.Protect(c, 0, t, q.tailAddr) {
			c.CountRetry()
			continue
		}
		next := c.Read(t + layout.OffNext)
		if c.Read(q.tailAddr) != t {
			c.CountRetry()
			continue
		}
		if next != 0 {
			c.CAS(q.tailAddr, t, next) // help
			c.CountRetry()
			continue
		}
		if c.CAS(t+layout.OffNext, 0, n) { // LP
			c.CAS(q.tailAddr, t, n)
			return
		}
		c.CountRetry()
	}
}

// Dequeue removes and returns the oldest key; the outgoing dummy is retired.
func (q *Guarded) Dequeue(c *sim.Ctx) (key uint64, ok bool) {
	q.r.BeginOp(c)
	defer q.r.EndOp(c)
	for {
		h := c.Read(q.headAddr)
		if !q.r.Protect(c, 0, h, q.headAddr) {
			c.CountRetry()
			continue
		}
		t := c.Read(q.tailAddr)
		next := c.Read(h + layout.OffNext)
		if c.Read(q.headAddr) != h {
			c.CountRetry()
			continue
		}
		if next == 0 {
			return 0, false
		}
		if h == t {
			c.CAS(q.tailAddr, t, next) // help the lagging tail
			c.CountRetry()
			continue
		}
		if !q.r.Protect(c, 1, next, h+layout.OffNext) {
			c.CountRetry()
			continue
		}
		key = c.Read(next + layout.OffKey)
		if c.CAS(q.headAddr, h, next) { // LP
			q.r.Retire(c, h)
			return key, true
		}
		c.CountRetry()
	}
}

// Peek returns the oldest key without removing it; ok=false means the queue
// was empty. Protection mirrors Dequeue's: the head node and its successor
// are both protected before the successor's key is read.
func (q *Guarded) Peek(c *sim.Ctx) (key uint64, ok bool) {
	q.r.BeginOp(c)
	defer q.r.EndOp(c)
	for {
		h := c.Read(q.headAddr)
		if !q.r.Protect(c, 0, h, q.headAddr) {
			c.CountRetry()
			continue
		}
		next := c.Read(h + layout.OffNext)
		if c.Read(q.headAddr) != h {
			c.CountRetry()
			continue
		}
		if next == 0 {
			return 0, false
		}
		if !q.r.Protect(c, 1, next, h+layout.OffNext) {
			c.CountRetry()
			continue
		}
		key = c.Read(next + layout.OffKey)
		if c.Read(q.headAddr) != h {
			c.CountRetry()
			continue
		}
		return key, true
	}
}

// Drain empties the queue single-threadedly and returns the keys in order.
// Test helper; performs no simulated work.
func Drain(space *mem.Space, headAddr mem.Addr) []uint64 {
	var ks []uint64
	h := space.Read(headAddr)
	for {
		next := space.Read(h + layout.OffNext)
		if next == 0 {
			return ks
		}
		ks = append(ks, space.Read(next+layout.OffKey))
		h = next
	}
}
