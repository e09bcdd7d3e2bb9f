package smr

import (
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// ibr implements interval-based reclamation in the 2GEIBR variant (Wen et
// al., PPoPP'18) the paper benchmarks: every node carries its birth era;
// every thread advertises a reservation interval [lo, hi]; a retired node
// may be freed once its lifetime interval [birth, retire] intersects no
// thread's reservation.
//
// 2GE's optimization over plain per-read publication is that the upper bound
// is republished (with its fence) only when the global era has actually
// advanced since the thread last looked — most protected reads pay just the
// global-era load. That makes ibr cheaper than hp/he but still more
// expensive per read than rcu/qsbr/ca, matching the paper's ordering.
type ibr struct {
	batch[ibrThread, *ibrThread] // reservation line: word0 = lo, word1 = hi
}

type ibrThread struct {
	cachedHi uint64 // value last published to hi (avoids re-publishing)
	ivals    []ival // the reservations this thread's last scan read
}

// ival is one thread's reservation interval [lo, hi].
type ival struct{ lo, hi uint64 }

func newIBR(space *mem.Space, nThreads int, o Options) *ibr {
	r := &ibr{newBatch[ibrThread]("ibr", space, nThreads, o, true, true)}
	for _, ra := range r.res {
		space.Write(ra, inf) // lo; with the zeroed hi, the idle [inf, 0] meets nothing
	}
	return r
}

func (r *ibr) BeginOp(c *sim.Ctx) {
	t := c.ThreadID()
	e := c.Read(r.clock)
	c.Write(r.res[t], e)               // lo
	c.Write(r.res[t]+mem.WordBytes, e) // hi (same line: one upgrade)
	c.Fence()
	r.own(c).cachedHi = e
}

func (r *ibr) EndOp(c *sim.Ctx) {
	t := c.ThreadID()
	c.Write(r.res[t], inf)
	c.Write(r.res[t]+mem.WordBytes, 0)
	r.own(c).cachedHi = 0
}

// Protect extends the reservation's upper bound to the current era before
// the caller dereferences node. The fence is paid only when the era moved.
// Then src is read again, as 2GEIBR's read loop does: node was loaded under
// the old bound, so if it was born after that bound it is covered only from
// the publication on, and it may have been unlinked and freed before.
func (r *ibr) Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool {
	pt := r.own(c)
	e := c.Read(r.clock)
	if e == pt.cachedHi {
		return true
	}
	c.Write(r.res[c.ThreadID()]+mem.WordBytes, e)
	c.Fence()
	pt.cachedHi = e
	return src == 0 || c.Read(src) == node
}

func (s *ibrThread) snapshot(c *sim.Ctx, res []mem.Addr) {
	s.ivals = s.ivals[:0]
	for _, ra := range res {
		s.ivals = append(s.ivals, ival{lo: c.Read(ra), hi: c.Read(ra + mem.WordBytes)})
	}
}

// pinned: rn's lifetime [birth, retire] meets some reservation [lo, hi].
func (s *ibrThread) pinned(rn retiredNode) bool {
	for _, iv := range s.ivals {
		if iv.lo <= rn.retire && rn.birth <= iv.hi {
			return true
		}
	}
	return false
}

// Validating: interval reservations protect every covered node.
func (r *ibr) Validating() bool { return false }
