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
	batch[heThread, *heThread] // reservation line: MaxSlots era words
}

type heThread struct {
	slotVal [MaxSlots]uint64
	eras    []uint64 // the published eras this thread's last scan read
}

func newHE(space *mem.Space, nThreads int, o Options) *he {
	// Zeroed lines: era 0 = idle slot.
	return &he{newBatch[heThread]("he", space, nThreads, o, true, true)}
}

func (h *he) BeginOp(c *sim.Ctx) {}

func (h *he) EndOp(c *sim.Ctx) {
	pt := h.own(c)
	for s := range pt.slotVal {
		if pt.slotVal[s] != 0 {
			c.Write(slotAddr(h.res[c.ThreadID()], s), 0)
			pt.slotVal[s] = 0
		}
	}
}

// Protect publishes the current era to slot and validates coverage:
// src (if nonzero) must still point at node, and node's birth era must not
// exceed the published era. The loop republishes if the era advanced
// between the publish and the birth check.
func (h *he) Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool {
	pt := h.own(c)
	for attempt := 0; attempt < 3; attempt++ {
		e := c.Read(h.clock)
		if pt.slotVal[slot] != e {
			c.Write(slotAddr(h.res[c.ThreadID()], slot), e)
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

func (s *heThread) snapshot(c *sim.Ctx, res []mem.Addr) {
	s.eras = s.eras[:0]
	for _, ra := range res {
		for slot := 0; slot < MaxSlots; slot++ {
			if v := c.Read(slotAddr(ra, slot)); v != 0 {
				s.eras = append(s.eras, v)
			}
		}
	}
}

// pinned: some slot holds an era inside rn's lifetime [birth, retire].
func (s *heThread) pinned(rn retiredNode) bool {
	for _, e := range s.eras {
		if rn.birth <= e && e <= rn.retire {
			return true
		}
	}
	return false
}

// Validating: like hp, hazard eras require link/mark re-validation.
func (h *he) Validating() bool { return true }
