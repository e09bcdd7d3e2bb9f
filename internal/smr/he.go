package smr

import (
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// he implements hazard eras (Ramalhete & Correia, SPAA'17): hazard pointers'
// slot discipline with epochs' node metadata. A thread protects a node by
// publishing the current era into a slot (fence included, like hp), then
// validating both that the source pointer still names the node and that the
// node's birth era is covered by the published era — retrying the publish if
// the global era raced ahead. A retired node is freed once no slot holds an
// era inside the node's [birth, retire] lifetime.
//
// Compared to hp, he trades the per-node publish for a per-era publish (a
// slot already holding the current era can be reused for free), but the
// validation loop still fences, keeping it in the paper's slow group.
type he struct {
	o Options

	globalAddr mem.Addr
	resAddr    []mem.Addr // per-thread line: MaxSlots era words

	perThread []heThread
	stats     Stats
}

type heThread struct {
	allocs  uint64
	slotVal [MaxSlots]uint64
	retired []retiredNode
	eras    []uint64 // scan's published eras, reused per thread as in hp
}

func newHE(space *mem.Space, nThreads int, o Options) *he {
	h := &he{o: o}
	h.globalAddr = space.AllocInfra()
	space.Write(h.globalAddr, 1)
	h.resAddr = make([]mem.Addr, nThreads)
	for t := range h.resAddr {
		h.resAddr[t] = space.AllocInfra() // zeroed: era 0 = idle slot
	}
	h.perThread = make([]heThread, nThreads)
	return h
}

func (h *he) Name() string { return "he" }

func (h *he) slotAddr(t, slot int) mem.Addr {
	return h.resAddr[t] + mem.Addr(slot)*mem.WordBytes
}

func (h *he) BeginOp(c *sim.Ctx) {}

func (h *he) EndOp(c *sim.Ctx) {
	t := c.ThreadID()
	pt := &h.perThread[t]
	for s := range pt.slotVal {
		if pt.slotVal[s] != 0 {
			c.Write(h.slotAddr(t, s), 0)
			pt.slotVal[s] = 0
		}
	}
}

// Protect publishes the current era to slot and validates coverage:
// src (if nonzero) must still point at node, and node's birth era must not
// exceed the published era. The loop republishes if the era advanced
// between the publish and the birth check.
func (h *he) Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool {
	t := c.ThreadID()
	pt := &h.perThread[t]
	for attempt := 0; attempt < 3; attempt++ {
		e := c.Read(h.globalAddr)
		if pt.slotVal[slot] != e {
			c.Write(h.slotAddr(t, slot), e)
			pt.slotVal[slot] = e
			c.Fence()
		}
		if src != 0 && c.Read(src) != node {
			return false
		}
		if src == 0 {
			return true
		}
		// The node is still reachable, so it is live and its birth word is
		// safe to read. If it was born after the era we published, the
		// published era does not cover it: republish.
		if c.Read(node+BirthEraOff) <= e {
			return true
		}
	}
	return false
}

func (h *he) Alloc(c *sim.Ctx) mem.Addr {
	t := c.ThreadID()
	pt := &h.perThread[t]
	pt.allocs++
	if pt.allocs%uint64(h.o.EpochEvery) == 0 {
		c.FetchAdd(h.globalAddr, 1)
	}
	node := c.AllocNode()
	c.Write(node+BirthEraOff, c.Read(h.globalAddr))
	return node
}

func (h *he) Retire(c *sim.Ctx, node mem.Addr) {
	t := c.ThreadID()
	pt := &h.perThread[t]
	pt.retired = append(pt.retired, retiredNode{
		addr:   node,
		birth:  c.Read(node + BirthEraOff),
		retire: c.Read(h.globalAddr),
	})
	h.stats.Retired++
	c.Work(retireCost)
	if len(pt.retired) >= h.o.ReclaimEvery {
		h.scan(c, pt)
	}
	if len(pt.retired) > h.stats.MaxBacklog {
		h.stats.MaxBacklog = len(pt.retired)
	}
}

func (h *he) scan(c *sim.Ctx, pt *heThread) {
	c.BeginPause() // the pass is a reclamation pause for the triggering op
	defer c.EndPause()
	h.stats.Scans++
	eras := pt.eras[:0]
	for t := range h.resAddr {
		for s := 0; s < MaxSlots; s++ {
			if v := c.Read(h.slotAddr(t, s)); v != 0 {
				eras = append(eras, v)
			}
		}
	}
	pt.eras = eras
	kept := pt.retired[:0]
	freed0 := h.stats.Freed
	for _, rn := range pt.retired {
		conflict := false
		for _, e := range eras {
			if rn.birth <= e && e <= rn.retire {
				conflict = true
				break
			}
		}
		if conflict {
			kept = append(kept, rn)
		} else {
			c.Free(rn.addr)
			h.stats.Freed++
		}
	}
	pt.retired = kept
	c.TraceScan(h.Name(), int(h.stats.Freed-freed0), len(kept))
}

func (h *he) Stats() Stats { return h.stats }

// Validating: like hp, hazard eras require link/mark re-validation.
func (h *he) Validating() bool { return true }
