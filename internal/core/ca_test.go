package core

import (
	"testing"

	"condaccess/internal/cache"
	"condaccess/internal/mem"
)

// rig builds an extension over a small hierarchy and heap.
func rig(cores int) (*Extension, *mem.Space) {
	s := mem.NewSpace()
	e := New(cache.New(cache.DefaultParams(cores)), s)
	e.Check = true
	return e, s
}

func TestCReadTagsAndLoads(t *testing.T) {
	e, s := rig(2)
	a := s.AllocNode()
	s.Write(a, 77)
	v, _, ok := e.CRead(0, a)
	if !ok || v != 77 {
		t.Fatalf("cread = %d,%v, want 77,true", v, ok)
	}
	if e.ports[0].TagCount() != 1 {
		t.Fatalf("tag set size = %d, want 1", e.ports[0].TagCount())
	}
	// Re-cread of the same line must not grow the tag set.
	if _, _, ok := e.CRead(0, a+8); !ok {
		t.Fatal("second cread failed")
	}
	if e.ports[0].TagCount() != 1 {
		t.Fatalf("tag set grew to %d on same-line cread", e.ports[0].TagCount())
	}
}

func TestRemoteWriteRevokes(t *testing.T) {
	e, s := rig(2)
	a := s.AllocNode()
	if _, _, ok := e.CRead(0, a); !ok {
		t.Fatal("cread failed")
	}
	// Core 1 writes the tagged line: core 0 must be revoked.
	e.h.Write(1, a)
	s.Write(a, 1)
	if !e.ports[0].Revoked() {
		t.Fatal("remote write did not revoke")
	}
	if _, _, ok := e.CRead(0, a); ok {
		t.Fatal("cread succeeded while revoked")
	}
	if _, ok := e.CWrite(0, a, 9); ok {
		t.Fatal("cwrite succeeded while revoked")
	}
	// untagAll clears the bit.
	e.UntagAll(0)
	if e.ports[0].Revoked() {
		t.Fatal("untagAll did not clear revocation")
	}
	if _, _, ok := e.CRead(0, a); !ok {
		t.Fatal("cread failed after untagAll")
	}
}

func TestCWriteRequiresTag(t *testing.T) {
	e, s := rig(1)
	a := s.AllocNode()
	if _, ok := e.CWrite(0, a, 5); ok {
		t.Fatal("cwrite succeeded on an untagged line")
	}
	if e.Stats().Untagged != 1 {
		t.Fatalf("untagged counter = %d, want 1", e.Stats().Untagged)
	}
	if _, _, ok := e.CRead(0, a); !ok {
		t.Fatal("cread failed")
	}
	if _, ok := e.CWrite(0, a, 5); !ok {
		t.Fatal("cwrite failed on a tagged line")
	}
	if s.Read(a) != 5 {
		t.Fatal("cwrite did not store")
	}
}

func TestUntagOneStopsTracking(t *testing.T) {
	e, s := rig(2)
	a := s.AllocNode()
	b := s.AllocNode()
	e.CRead(0, a)
	e.CRead(0, b)
	e.UntagOne(0, a)
	if e.ports[0].TagCount() != 1 {
		t.Fatalf("tag set = %d, want 1", e.ports[0].TagCount())
	}
	// A write to the untagged line must NOT revoke.
	e.h.Write(1, a)
	if e.ports[0].Revoked() {
		t.Fatal("untagged line still revokes")
	}
	// But the still-tagged line must.
	e.h.Write(1, b)
	if !e.ports[0].Revoked() {
		t.Fatal("tagged line did not revoke")
	}
}

func TestSelfEvictionRevokes(t *testing.T) {
	p := cache.DefaultParams(1)
	p.L1Bytes = 2 * 64 * 2 // 2 sets, 2-way: tiny, to force conflict evictions
	p.L1Assoc = 2
	s := mem.NewSpace()
	e := New(cache.New(p), s)
	// Three lines mapping to the same set (stride = sets*64 = 128).
	var lines []mem.Addr
	for len(lines) < 3 {
		a := s.AllocInfra()
		if (a/64)%2 == 0 {
			lines = append(lines, a)
		}
	}
	if _, _, ok := e.CRead(0, lines[0]); !ok {
		t.Fatal("cread 0 failed")
	}
	if _, _, ok := e.CRead(0, lines[1]); !ok {
		t.Fatal("cread 1 failed")
	}
	// Third cread evicts a tagged line: the paper's spurious failure.
	if _, _, ok := e.CRead(0, lines[2]); !ok {
		t.Fatal("cread 2 failed (revocation should postdate its flag check)")
	}
	if !e.ports[0].Revoked() {
		t.Fatal("associativity eviction did not revoke")
	}
	if e.Stats().Revocations == 0 {
		t.Fatal("revocation not counted")
	}
}

func TestABADetection(t *testing.T) {
	// Theorem 7 as a test: tag a line, free+reallocate it behind the
	// extension's back without any coherence event (impossible on real
	// hardware, constructible here), and verify the Check-mode cread panics
	// rather than succeeding across the reallocation.
	e, s := rig(2)
	a := s.AllocNode()
	if _, _, ok := e.CRead(0, a); !ok {
		t.Fatal("cread failed")
	}
	s.FreeNode(a) // rule violation: no store before free
	if got := s.AllocNode(); got != a {
		t.Fatalf("allocator did not reuse %#x", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cread across reallocation did not trip the Theorem 7 check")
		}
	}()
	e.CRead(0, a)
}

func TestTryLockSemantics(t *testing.T) {
	e, s := rig(2)
	node := s.AllocNode()
	lockAddr := node + 32
	acc0 := &testAccessor{e: e, s: s, core: 0}
	acc1 := &testAccessor{e: e, s: s, core: 1}
	// Precondition: tag the node first.
	if _, _, ok := e.CRead(0, node); !ok {
		t.Fatal("cread failed")
	}
	if !TryLock(acc0, lockAddr) {
		t.Fatal("trylock on free lock failed")
	}
	// A second acquirer sees the lock busy.
	if _, _, ok := e.CRead(1, node); !ok {
		t.Fatal("core 1 cread failed")
	}
	if TryLock(acc1, lockAddr) {
		t.Fatal("trylock acquired a held lock")
	}
	Unlock(acc0, lockAddr)
	// The unlock store revoked core 1; its next trylock fails on the cread,
	// and after untagAll+retag it succeeds.
	if TryLock(acc1, lockAddr) {
		t.Fatal("trylock succeeded while revoked")
	}
	e.UntagAll(1)
	if _, _, ok := e.CRead(1, node); !ok {
		t.Fatal("re-tag failed")
	}
	if !TryLock(acc1, lockAddr) {
		t.Fatal("trylock after unlock failed")
	}
}

// testAccessor adapts the extension to the Accessor interface for lock tests
// (the simulator's Ctx does this in production).
type testAccessor struct {
	e    *Extension
	s    *mem.Space
	core int
}

func (a *testAccessor) CRead(addr mem.Addr) (uint64, bool) {
	v, _, ok := a.e.CRead(a.core, addr)
	return v, ok
}

func (a *testAccessor) CWrite(addr mem.Addr, v uint64) bool {
	_, ok := a.e.CWrite(a.core, addr, v)
	return ok
}

func (a *testAccessor) Write(addr mem.Addr, v uint64) {
	a.e.h.Write(a.core, addr)
	a.s.Write(addr, v)
}
