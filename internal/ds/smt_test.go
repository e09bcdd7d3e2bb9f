package ds_test

// End-to-end tests of the paper's Section III system-integration features:
// SMT (hyperthreads sharing an L1, sibling writes revoking sibling tags) and
// context-switch revocation. Conditional Access structures must stay safe
// and correct under both — at worst they retry more.

import (
	"testing"

	"condaccess/internal/cache"
	"condaccess/internal/ds/lazylist"
	"condaccess/internal/ds/stack"
	"condaccess/internal/sim"
)

// TestCAListUnderSMT runs the Conditional Access lazy list with 8 hardware
// threads on 4 physical cores (2-way SMT) with all safety assertions on.
func TestCAListUnderSMT(t *testing.T) {
	p := cache.DefaultParams(8)
	p.ThreadsPerCore = 2
	m := sim.New(sim.Config{Cores: 8, Check: true, Cache: p})
	l := lazylist.NewCA(m.Space)
	for i := 0; i < 8; i++ {
		m.Spawn(func(c *sim.Ctx) {
			rng := sim.ThreadRNG(21, i)
			for j := 0; j < 250; j++ {
				key := rng.Uint64n(64) + 1
				switch rng.Intn(3) {
				case 0:
					l.Insert(c, key)
				case 1:
					l.Delete(c, key)
				default:
					l.Contains(c, key)
				}
			}
		})
	}
	m.Run()
	ks := lazylist.Keys(m.Space, l.Head)
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("list unsorted under SMT: %v", ks)
		}
	}
	if live, n := m.Space.Stats().NodeLive(), len(ks); int(live) != n {
		t.Fatalf("live %d != list %d: immediate reclamation broke under SMT", live, n)
	}
}

// TestSiblingWriteForcesRetry pins the SMT semantics end to end: a
// hyperthread's plain write to a line its sibling tagged makes the sibling's
// next conditional access fail.
func TestSiblingWriteForcesRetry(t *testing.T) {
	p := cache.DefaultParams(2)
	p.ThreadsPerCore = 2 // threads 0 and 1 share one L1
	m := sim.New(sim.Config{Cores: 2, Check: true, Cache: p})
	x := m.Space.AllocInfra()
	flag := m.Space.AllocInfra()
	m.Spawn(func(c *sim.Ctx) {
		if _, ok := c.CRead(x); !ok {
			t.Error("initial cread failed")
		}
		c.Write(flag, 1)
		for c.Read(flag) != 2 {
			c.Work(10)
		}
		if _, ok := c.CRead(x); ok {
			t.Error("cread succeeded after sibling write (no coherence event, same L1 — SMT rule violated)")
		}
	})
	m.Spawn(func(c *sim.Ctx) {
		for c.Read(flag) != 1 {
			c.Work(10)
		}
		c.Write(x, 5) // stays in the shared L1: only the SMT rule revokes
		c.Write(flag, 2)
	})
	m.Run()
}

// TestPreemptionRevokes checks the context-switch rule: after Preempt, the
// thread's conditional accesses fail until untagAll.
func TestPreemptionRevokes(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1, Check: true})
	x := m.Space.AllocInfra()
	m.Spawn(func(c *sim.Ctx) {
		if _, ok := c.CRead(x); !ok {
			t.Error("cread failed")
		}
		c.Preempt()
		if _, ok := c.CRead(x); ok {
			t.Error("cread succeeded across a context switch")
		}
		if c.CWrite(x, 1) {
			t.Error("cwrite succeeded across a context switch")
		}
		c.UntagAll()
		if _, ok := c.CRead(x); !ok {
			t.Error("cread failed after untagAll")
		}
	})
	m.Run()
}

// TestPreemptionChaos injects random context switches into a concurrent
// Conditional Access workload: operations retry through them and the
// structures stay consistent (nothing panics under Check).
func TestPreemptionChaos(t *testing.T) {
	m := sim.New(sim.Config{Cores: 6, Check: true})
	l := lazylist.NewCA(m.Space)
	s := stack.NewCA(m.Space)
	for i := 0; i < 6; i++ {
		m.Spawn(func(c *sim.Ctx) {
			rng := sim.ThreadRNG(24, i)
			for j := 0; j < 200; j++ {
				if rng.Intn(13) == 0 {
					c.Preempt() // the OS interferes mid-operation-stream
				}
				key := rng.Uint64n(48) + 1
				switch rng.Intn(4) {
				case 0:
					l.Insert(c, key)
				case 1:
					l.Delete(c, key)
				case 2:
					s.Push(c, key)
				default:
					s.Pop(c)
				}
			}
		})
	}
	m.Run()
	ks := lazylist.Keys(m.Space, l.Head)
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("list unsorted under preemption: %v", ks)
		}
	}
}
