package smr

import (
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// hp implements Michael's hazard pointers. Each thread owns MaxSlots hazard
// slots on a private cache line. Protecting a node publishes its address to
// a slot, drains the store buffer (the fence that dominates hp's per-read
// cost), and re-reads the source pointer to confirm the node is still
// reachable; a reclaimer frees a retired node only after scanning every
// slot of every thread and finding the node in none of them.
//
// hp bounds the retired backlog at nThreads*MaxSlots outstanding nodes, the
// tightest bound of the baselines — paid for with the per-read fence and the
// O(threads) scan, which is why the paper measures it among the slowest.
type hp struct {
	batch[hpThread, *hpThread] // reservation line: MaxSlots hazard words
}

type hpThread struct {
	used    [MaxSlots]bool
	hazards map[mem.Addr]struct{} // the hazards this thread's last scan read
}

func newHP(space *mem.Space, nThreads int, o Options) *hp {
	// No era clock; zeroed lines: all slots empty.
	return &hp{newBatch[hpThread]("hp", space, nThreads, o, false, false)}
}

func (h *hp) BeginOp(c *sim.Ctx) {}

// EndOp clears the slots published during the operation (plain stores; the
// next Protect's fence orders them).
func (h *hp) EndOp(c *sim.Ctx) {
	pt := h.own(c)
	for s := range pt.used {
		if pt.used[s] {
			c.Write(slotAddr(h.res[c.ThreadID()], s), 0)
			pt.used[s] = false
		}
	}
}

// Protect publishes node to slot, fences, and validates that src still
// points at node. src == 0 skips validation (immortal roots such as
// sentinels). Returning false obliges the caller to restart its operation.
func (h *hp) Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool {
	c.Write(slotAddr(h.res[c.ThreadID()], slot), node)
	h.own(c).used[slot] = true
	c.Fence()
	if src == 0 {
		return true
	}
	return c.Read(src) == node
}

func (s *hpThread) snapshot(c *sim.Ctx, res []mem.Addr) {
	if s.hazards == nil {
		s.hazards = make(map[mem.Addr]struct{}, len(res)*MaxSlots)
	}
	clear(s.hazards)
	for _, ra := range res {
		for slot := 0; slot < MaxSlots; slot++ {
			if v := c.Read(slotAddr(ra, slot)); v != 0 {
				s.hazards[v] = struct{}{}
			}
		}
	}
}

// pinned: some hazard slot holds rn.
func (s *hpThread) pinned(rn retiredNode) bool {
	_, hazardous := s.hazards[rn.addr]
	return hazardous
}

// Validating: hazard pointers only protect nodes reachable at publish time,
// so traversals must re-validate links/marks after each Protect.
func (h *hp) Validating() bool { return true }
