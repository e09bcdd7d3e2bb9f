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
	o Options

	globalAddr mem.Addr
	resAddr    []mem.Addr // per-thread line: word0 = lo, word1 = hi

	perThread []ibrThread
	stats     Stats
}

type ibrThread struct {
	allocs   uint64
	cachedHi uint64 // value last published to hi (avoids re-publishing)
	retired  []retiredNode
	ivals    []ival // scan's reservations, reused per thread as in hp
}

// ival is one thread's reservation interval [lo, hi].
type ival struct{ lo, hi uint64 }

func newIBR(space *mem.Space, nThreads int, o Options) *ibr {
	r := &ibr{o: o}
	r.globalAddr = space.AllocInfra()
	space.Write(r.globalAddr, 1)
	r.resAddr = make([]mem.Addr, nThreads)
	for t := range r.resAddr {
		r.resAddr[t] = space.AllocInfra()
		// Idle interval [inf, 0] intersects nothing.
		space.Write(r.resAddr[t], inf)
		space.Write(r.resAddr[t]+mem.WordBytes, 0)
	}
	r.perThread = make([]ibrThread, nThreads)
	return r
}

func (r *ibr) Name() string { return "ibr" }

func (r *ibr) BeginOp(c *sim.Ctx) {
	t := c.ThreadID()
	e := c.Read(r.globalAddr)
	c.Write(r.resAddr[t], e)               // lo
	c.Write(r.resAddr[t]+mem.WordBytes, e) // hi (same line: one upgrade)
	c.Fence()
	r.perThread[t].cachedHi = e
}

func (r *ibr) EndOp(c *sim.Ctx) {
	t := c.ThreadID()
	c.Write(r.resAddr[t], inf)
	c.Write(r.resAddr[t]+mem.WordBytes, 0)
	r.perThread[t].cachedHi = 0
}

// Protect extends the reservation's upper bound to the current era before
// the caller dereferences node. The fence is paid only when the era moved.
func (r *ibr) Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool {
	t := c.ThreadID()
	pt := &r.perThread[t]
	e := c.Read(r.globalAddr)
	if e != pt.cachedHi {
		c.Write(r.resAddr[t]+mem.WordBytes, e)
		c.Fence()
		pt.cachedHi = e
	}
	return true
}

func (r *ibr) Alloc(c *sim.Ctx) mem.Addr {
	t := c.ThreadID()
	pt := &r.perThread[t]
	pt.allocs++
	if pt.allocs%uint64(r.o.EpochEvery) == 0 {
		c.FetchAdd(r.globalAddr, 1)
	}
	node := c.AllocNode()
	// Stamp the birth era. The store is part of node initialization; the
	// line was just allocated so this is typically a cheap upgrade.
	c.Write(node+BirthEraOff, c.Read(r.globalAddr))
	return node
}

func (r *ibr) Retire(c *sim.Ctx, node mem.Addr) {
	t := c.ThreadID()
	pt := &r.perThread[t]
	pt.retired = append(pt.retired, retiredNode{
		addr:   node,
		birth:  c.Read(node + BirthEraOff),
		retire: c.Read(r.globalAddr),
	})
	r.stats.Retired++
	c.Work(retireCost)
	if len(pt.retired) >= r.o.ReclaimEvery {
		r.scan(c, pt)
	}
	if len(pt.retired) > r.stats.MaxBacklog {
		r.stats.MaxBacklog = len(pt.retired)
	}
}

func (r *ibr) scan(c *sim.Ctx, pt *ibrThread) {
	c.BeginPause() // the pass is a reclamation pause for the triggering op
	defer c.EndPause()
	r.stats.Scans++
	ivals := pt.ivals[:0]
	for _, ra := range r.resAddr {
		ivals = append(ivals, ival{lo: c.Read(ra), hi: c.Read(ra + mem.WordBytes)})
	}
	pt.ivals = ivals
	kept := pt.retired[:0]
	freed0 := r.stats.Freed
	for _, rn := range pt.retired {
		conflict := false
		for _, iv := range ivals {
			// Lifetime [birth, retire] vs reservation [lo, hi].
			if iv.lo <= rn.retire && rn.birth <= iv.hi {
				conflict = true
				break
			}
		}
		if conflict {
			kept = append(kept, rn)
		} else {
			c.Free(rn.addr)
			r.stats.Freed++
		}
	}
	pt.retired = kept
	c.TraceScan(r.Name(), int(r.stats.Freed-freed0), len(kept))
}

func (r *ibr) Stats() Stats { return r.stats }

// Validating: interval reservations protect every covered node.
func (r *ibr) Validating() bool { return false }
