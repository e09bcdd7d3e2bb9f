package core_test

import (
	"fmt"
	"strings"
	"testing"

	"condaccess/internal/cache"
	"condaccess/internal/core"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// rig builds a checked machine of cores cores. The instructions run where
// the simulator runs them, on a thread's sim.Ctx.
func rig(cores int) *sim.Machine {
	return sim.New(sim.Config{Cores: cores, Seed: 1, Check: true})
}

// on runs body as the thread on core tid of m, in a phase of its own; the
// cores below tid run empty threads. Tags and revoked bits live in the
// cache hierarchy and outlast the phase, so a test steps the cores in turn.
func on(m *sim.Machine, tid int, body func(*sim.Ctx)) {
	for range tid {
		m.Spawn(func(*sim.Ctx) {})
	}
	m.Spawn(body)
	m.Run()
}

// remoteWrite is core 1 writing v to a behind core 0's thread: the
// hierarchy sees the store, and the heap takes the value.
func remoteWrite(m *sim.Machine, a mem.Addr, v uint64) {
	m.Hier.Write(1, a)
	m.Space.Write(a, v)
}

// tags returns the size of core tid's tag set.
func tags(m *sim.Machine, tid int) int {
	p := m.Hier.Port(tid)
	return p.TagCount()
}

func TestCReadTagsAndLoads(t *testing.T) {
	m := rig(2)
	a := m.Space.AllocNode()
	m.Space.Write(a, 77)
	on(m, 0, func(c *sim.Ctx) {
		v, ok := c.CRead(a)
		if !ok || v != 77 {
			t.Fatalf("cread = %d,%v, want 77,true", v, ok)
		}
		if tags(m, 0) != 1 {
			t.Fatalf("tag set size = %d, want 1", tags(m, 0))
		}
		// Re-cread of the same line must not grow the tag set.
		if _, ok := c.CRead(a + 8); !ok {
			t.Fatal("second cread failed")
		}
		if tags(m, 0) != 1 {
			t.Fatalf("tag set grew to %d on same-line cread", tags(m, 0))
		}
	})
}

func TestRemoteWriteRevokes(t *testing.T) {
	m := rig(2)
	a := m.Space.AllocNode()
	on(m, 0, func(c *sim.Ctx) {
		if _, ok := c.CRead(a); !ok {
			t.Fatal("cread failed")
		}
		// Core 1 writes the tagged line: core 0 must be revoked.
		remoteWrite(m, a, 1)
		if !c.Revoked() {
			t.Fatal("remote write did not revoke")
		}
		if _, ok := c.CRead(a); ok {
			t.Fatal("cread succeeded while revoked")
		}
		if c.CWrite(a, 9) {
			t.Fatal("cwrite succeeded while revoked")
		}
		// untagAll clears the bit.
		c.UntagAll()
		if c.Revoked() {
			t.Fatal("untagAll did not clear revocation")
		}
		if _, ok := c.CRead(a); !ok {
			t.Fatal("cread failed after untagAll")
		}
	})
}

func TestCWriteRequiresTag(t *testing.T) {
	m := rig(1)
	a := m.Space.AllocNode()
	on(m, 0, func(c *sim.Ctx) {
		if c.CWrite(a, 5) {
			t.Fatal("cwrite succeeded on an untagged line")
		}
		if n := m.CAStats().Untagged; n != 1 {
			t.Fatalf("untagged counter = %d, want 1", n)
		}
		if _, ok := c.CRead(a); !ok {
			t.Fatal("cread failed")
		}
		if !c.CWrite(a, 5) {
			t.Fatal("cwrite failed on a tagged line")
		}
	})
	if m.Space.Read(a) != 5 {
		t.Fatal("cwrite did not store")
	}
}

func TestUntagOneStopsTracking(t *testing.T) {
	m := rig(2)
	a := m.Space.AllocNode()
	b := m.Space.AllocNode()
	on(m, 0, func(c *sim.Ctx) {
		c.CRead(a)
		c.CRead(b)
		c.UntagOne(a)
		if tags(m, 0) != 1 {
			t.Fatalf("tag set = %d, want 1", tags(m, 0))
		}
		// A write to the untagged line must NOT revoke.
		m.Hier.Write(1, a)
		if c.Revoked() {
			t.Fatal("untagged line still revokes")
		}
		// But the still-tagged line must.
		m.Hier.Write(1, b)
		if !c.Revoked() {
			t.Fatal("tagged line did not revoke")
		}
	})
}

func TestSelfEvictionRevokes(t *testing.T) {
	p := cache.DefaultParams(1)
	p.L1Bytes = 2 * 64 * 2 // 2 sets, 2-way: tiny, to force conflict evictions
	p.L1Assoc = 2
	m := sim.New(sim.Config{Cores: 1, Cache: p, Seed: 1})
	// Three lines mapping to the same set (stride = sets*64 = 128).
	var lines []mem.Addr
	for len(lines) < 3 {
		a := m.Space.AllocInfra()
		if (a/64)%2 == 0 {
			lines = append(lines, a)
		}
	}
	on(m, 0, func(c *sim.Ctx) {
		if _, ok := c.CRead(lines[0]); !ok {
			t.Fatal("cread 0 failed")
		}
		if _, ok := c.CRead(lines[1]); !ok {
			t.Fatal("cread 1 failed")
		}
		// Third cread evicts a tagged line: the paper's spurious failure.
		if _, ok := c.CRead(lines[2]); !ok {
			t.Fatal("cread 2 failed (revocation should postdate its flag check)")
		}
		if !c.Revoked() {
			t.Fatal("associativity eviction did not revoke")
		}
	})
	if m.CAStats().Revocations == 0 {
		t.Fatal("revocation not counted")
	}
}

// panicOf runs body on core 0 of a checked two-core machine after a cread
// has tagged node a, and returns what body panicked with ("" if nothing).
// prepare runs between the cread and body, behind the machine's back.
func panicOf(t *testing.T, prepare func(m *sim.Machine, a mem.Addr), body func(c *sim.Ctx, a mem.Addr)) string {
	t.Helper()
	m := rig(2)
	a := m.Space.AllocNode()
	var msg string
	on(m, 0, func(c *sim.Ctx) {
		if _, ok := c.CRead(a); !ok {
			t.Fatal("cread failed")
		}
		prepare(m, a)
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		body(c, a)
	})
	return msg
}

// reallocate frees a and allocates it again without any coherence event —
// impossible on real hardware, constructible here, and a rule violation (no
// store before the free).
func reallocate(t *testing.T) func(m *sim.Machine, a mem.Addr) {
	return func(m *sim.Machine, a mem.Addr) {
		m.Space.FreeNode(a)
		if got := m.Space.AllocNode(); got != a {
			t.Fatalf("allocator did not reuse %#x", a)
		}
	}
}

// free frees a without any coherence event, leaving it tagged.
func free(m *sim.Machine, a mem.Addr) { m.Space.FreeNode(a) }

func cread(c *sim.Ctx, a mem.Addr)  { c.CRead(a) }
func cwrite(c *sim.Ctx, a mem.Addr) { c.CWrite(a, 1) }

// TestABADetection is Theorem 7 as a test: tag a line, free and reallocate
// it behind the machine's back, and verify the Check-mode cread panics
// rather than succeeding across the reallocation.
func TestABADetection(t *testing.T) {
	if msg := panicOf(t, reallocate(t), cread); !strings.Contains(msg, "Theorem 7") {
		t.Fatalf("cread across reallocation panicked with %q, want the Theorem 7 check", msg)
	}
}

// The Check-mode assertions can fail on a cwrite too: across a
// reallocation (Theorem 7), and on a tagged line that was freed (Theorem 6).
func TestCWriteABADetection(t *testing.T) {
	if msg := panicOf(t, reallocate(t), cwrite); !strings.Contains(msg, "core: cwrite") || !strings.Contains(msg, "Theorem 7") {
		t.Fatalf("cwrite across reallocation panicked with %q, want the Theorem 7 check", msg)
	}
}

func TestCWriteFreedLineDetection(t *testing.T) {
	if msg := panicOf(t, free, cwrite); !strings.Contains(msg, "core: cwrite") || !strings.Contains(msg, "Theorem 6") {
		t.Fatalf("cwrite to a freed line panicked with %q, want the Theorem 6 check", msg)
	}
}

// A cread of a tagged line that was freed loads it before core's checks
// run, so the heap's use-after-free check fires first: core's Theorem 6
// assertion for a cread cannot be reached through the Ctx of a checked
// machine.
func TestCReadFreedLineDetection(t *testing.T) {
	if msg := panicOf(t, free, cread); !strings.Contains(msg, "mem: use-after-free read") {
		t.Fatalf("cread of a freed line panicked with %q, want the heap's use-after-free check", msg)
	}
}

func TestTryLockSemantics(t *testing.T) {
	m := rig(2)
	node := m.Space.AllocNode()
	lockAddr := node + 32
	on(m, 0, func(c *sim.Ctx) {
		// Precondition: tag the node first.
		if _, ok := c.CRead(node); !ok {
			t.Fatal("cread failed")
		}
		if !core.TryLock(c, lockAddr) {
			t.Fatal("trylock on free lock failed")
		}
	})
	on(m, 1, func(c *sim.Ctx) {
		// A second acquirer sees the lock busy.
		if _, ok := c.CRead(node); !ok {
			t.Fatal("core 1 cread failed")
		}
		if core.TryLock(c, lockAddr) {
			t.Fatal("trylock acquired a held lock")
		}
	})
	on(m, 0, func(c *sim.Ctx) { core.Unlock(c, lockAddr) })
	on(m, 1, func(c *sim.Ctx) {
		// The unlock store revoked core 1; its next trylock fails on the
		// cread, and after untagAll+retag it succeeds.
		if core.TryLock(c, lockAddr) {
			t.Fatal("trylock succeeded while revoked")
		}
		c.UntagAll()
		if _, ok := c.CRead(node); !ok {
			t.Fatal("re-tag failed")
		}
		if !core.TryLock(c, lockAddr) {
			t.Fatal("trylock after unlock failed")
		}
	})
}
