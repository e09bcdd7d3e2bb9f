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
	o       Options
	resAddr []mem.Addr // per-thread line: MaxSlots hazard words

	perThread []hpThread
	stats     Stats
}

type hpThread struct {
	used    [MaxSlots]bool
	retired []retiredNode
	// hazards is scan's set of published hazards, cleared and reused by
	// each of this thread's scans. It is per thread because a scan's slot
	// reads can end its quantum, and another thread's scan may run then.
	hazards map[mem.Addr]struct{}
}

func newHP(space *mem.Space, nThreads int, o Options) *hp {
	h := &hp{o: o}
	h.resAddr = make([]mem.Addr, nThreads)
	for t := range h.resAddr {
		h.resAddr[t] = space.AllocInfra() // zeroed: all slots empty
	}
	h.perThread = make([]hpThread, nThreads)
	return h
}

func (h *hp) Name() string { return "hp" }

func (h *hp) BeginOp(c *sim.Ctx) {}

// EndOp clears the slots published during the operation (plain stores; the
// next Protect's fence orders them).
func (h *hp) EndOp(c *sim.Ctx) {
	t := c.ThreadID()
	pt := &h.perThread[t]
	for s := range pt.used {
		if pt.used[s] {
			c.Write(h.slotAddr(t, s), 0)
			pt.used[s] = false
		}
	}
}

func (h *hp) slotAddr(t, slot int) mem.Addr {
	return h.resAddr[t] + mem.Addr(slot)*mem.WordBytes
}

// Protect publishes node to slot, fences, and validates that src still
// points at node. src == 0 skips validation (immortal roots such as
// sentinels). Returning false obliges the caller to restart its operation.
func (h *hp) Protect(c *sim.Ctx, slot int, node, src mem.Addr) bool {
	t := c.ThreadID()
	pt := &h.perThread[t]
	c.Write(h.slotAddr(t, slot), node)
	pt.used[slot] = true
	c.Fence()
	if src == 0 {
		return true
	}
	return c.Read(src) == node
}

func (h *hp) Alloc(c *sim.Ctx) mem.Addr { return c.AllocNode() }

func (h *hp) Retire(c *sim.Ctx, node mem.Addr) {
	t := c.ThreadID()
	pt := &h.perThread[t]
	pt.retired = append(pt.retired, retiredNode{addr: node})
	h.stats.Retired++
	c.Work(retireCost)
	if len(pt.retired) >= h.o.ReclaimEvery {
		h.scan(c, pt)
	}
	if len(pt.retired) > h.stats.MaxBacklog {
		h.stats.MaxBacklog = len(pt.retired)
	}
}

// scan reads every hazard slot of every thread and frees the retired nodes
// protected by none of them.
func (h *hp) scan(c *sim.Ctx, pt *hpThread) {
	c.BeginPause() // the pass is a reclamation pause for the triggering op
	defer c.EndPause()
	h.stats.Scans++
	if pt.hazards == nil {
		pt.hazards = make(map[mem.Addr]struct{}, len(h.resAddr)*MaxSlots)
	}
	hazards := pt.hazards
	clear(hazards)
	for t := range h.resAddr {
		for s := 0; s < MaxSlots; s++ {
			if v := c.Read(h.slotAddr(t, s)); v != 0 {
				hazards[v] = struct{}{}
			}
		}
	}
	kept := pt.retired[:0]
	freed0 := h.stats.Freed
	for _, rn := range pt.retired {
		if _, hazardous := hazards[rn.addr]; hazardous {
			kept = append(kept, rn)
		} else {
			c.Free(rn.addr)
			h.stats.Freed++
		}
	}
	pt.retired = kept
	c.TraceScan(h.Name(), int(h.stats.Freed-freed0), len(kept))
}

func (h *hp) Stats() Stats { return h.stats }

// Validating: hazard pointers only protect nodes reachable at publish time,
// so traversals must re-validate links/marks after each Protect.
func (h *hp) Validating() bool { return true }
