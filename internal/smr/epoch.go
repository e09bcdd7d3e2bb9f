package smr

import (
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// epoch implements the two epoch-based schemes:
//
//   - rcu: readers announce the global epoch with a fenced store on every
//     operation entry and withdraw on exit. This is epoch-based reclamation
//     in the style the paper's benchmark calls "rcu".
//   - qsbr: quiescent-state-based reclamation. Threads announce the epoch
//     they last observed at operation boundaries (their quiescent states)
//     with a plain store and never withdraw. Cheaper than rcu (no fence, no
//     begin-of-op work) but a single stalled thread blocks all reclamation —
//     the unbounded-footprint weakness the paper points out.
//
// Both have zero per-read overhead, which is why the paper finds them (with
// none) to be the fastest baselines. Reclamation frees a retired node once
// its retire epoch precedes every announced reservation.
type epoch struct {
	batch[epochThread, *epochThread]
	qsbr bool
}

// epochThread is one thread's scan snapshot: the oldest announced epoch.
type epochThread struct{ minRes uint64 }

func newEpoch(space *mem.Space, nThreads int, o Options, qsbr bool) *epoch {
	if qsbr {
		// qsbr threads have not passed a quiescent state yet; their zeroed
		// reservations (epoch 0) block reclamation until they first
		// announce.
		return &epoch{newBatch[epochThread]("qsbr", space, nThreads, o, true, false), true}
	}
	e := &epoch{newBatch[epochThread]("rcu", space, nThreads, o, true, false), false}
	for _, ra := range e.res {
		space.Write(ra, inf)
	}
	return e
}

func (e *epoch) BeginOp(c *sim.Ctx) {
	if e.qsbr {
		return
	}
	t := c.ThreadID()
	v := c.Read(e.clock)
	c.Write(e.res[t], v)
	c.Fence()
}

func (e *epoch) EndOp(c *sim.Ctx) {
	t := c.ThreadID()
	if e.qsbr {
		// Operation boundaries are the quiescent states: announce the
		// current epoch with a plain (unfenced) store.
		v := c.Read(e.clock)
		c.Write(e.res[t], v)
		return
	}
	c.Write(e.res[t], inf)
}

// Protect is free: epoch-based readers pay nothing per read.
func (e *epoch) Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool { return true }

func (s *epochThread) snapshot(c *sim.Ctx, res []mem.Addr) {
	s.minRes = inf
	for _, ra := range res {
		if v := c.Read(ra); v < s.minRes {
			s.minRes = v
		}
	}
}

// pinned: rn did not retire before the oldest announced epoch.
func (s *epochThread) pinned(rn retiredNode) bool { return rn.retire >= s.minRes }

// Validating: epoch reservations protect every unreclaimed node.
func (e *epoch) Validating() bool { return false }
