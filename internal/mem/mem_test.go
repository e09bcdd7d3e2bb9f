package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocNodeZeroesAndAligns(t *testing.T) {
	s := NewSpace()
	a := s.AllocNode()
	if a == 0 || a%LineBytes != 0 {
		t.Fatalf("bad node address %#x", a)
	}
	for i := Addr(0); i < LineBytes; i += WordBytes {
		if v := s.Read(a + i); v != 0 {
			t.Fatalf("fresh node word %d = %#x, want 0", i/8, v)
		}
	}
}

func TestFreeReuseLIFOAndGeneration(t *testing.T) {
	s := NewSpace()
	a := s.AllocNode()
	g1 := s.Gen(a)
	b := s.AllocNode()
	s.FreeNode(a)
	s.FreeNode(b)
	// LIFO: b comes back first, then a.
	if got := s.AllocNode(); got != b {
		t.Fatalf("reuse = %#x, want %#x (LIFO)", got, b)
	}
	if got := s.AllocNode(); got != a {
		t.Fatalf("second reuse = %#x, want %#x", got, a)
	}
	if g2 := s.Gen(a); g2 != g1+1 {
		t.Fatalf("generation = %d, want %d", g2, g1+1)
	}
}

func TestPoisonOnFree(t *testing.T) {
	s := NewSpace()
	a := s.AllocNode()
	s.Write(a, 12345)
	s.FreeNode(a)
	if v := s.ReadAny(a); v != PoisonWord {
		t.Fatalf("freed word = %#x, want poison", v)
	}
}

func TestUAFDetection(t *testing.T) {
	s := NewSpace()
	s.SetCheckUAF(true)
	a := s.AllocNode()
	s.FreeNode(a)
	mustPanic(t, "read-after-free", func() { s.Read(a) })
	mustPanic(t, "write-after-free", func() { s.Write(a, 1) })
}

func TestDoubleFreePanics(t *testing.T) {
	s := NewSpace()
	a := s.AllocNode()
	s.FreeNode(a)
	mustPanic(t, "double free", func() { s.FreeNode(a) })
	mustPanic(t, "free null", func() { s.FreeNode(0) })
	mustPanic(t, "free unaligned", func() { s.FreeNode(s.AllocNode() + 8) })
}

func TestInfraExcludedFromNodeStats(t *testing.T) {
	s := NewSpace()
	s.AllocInfra()
	s.AllocInfra()
	s.AllocNode()
	st := s.Stats()
	if st.NodeAllocs != 1 || st.InfraLines != 2 || st.NodeLive() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	s := NewSpace()
	a := s.AllocNode()
	mustPanic(t, "unaligned read", func() { s.Read(a + 3) })
	mustPanic(t, "unaligned write", func() { s.Write(a+5, 1) })
}

func TestWildAddressPanics(t *testing.T) {
	s := NewSpace()
	mustPanic(t, "wild read", func() { s.Read(1 << 40) })
}

// TestWildAddressDoesNotAlias: an address whose line number does not fit in
// 32 bits is wild, not the low line it would narrow to. Freeing it must
// panic and leave that line's node live.
func TestWildAddressDoesNotAlias(t *testing.T) {
	s := NewSpace()
	a := s.AllocNode()
	wild := a + 1<<38 // line a/LineBytes + 2^32
	mustPanic(t, "wild free", func() { s.FreeNode(wild) })
	mustPanic(t, "wild gen", func() { s.Gen(wild) })
	mustPanic(t, "wild live", func() { s.Live(wild) })
	mustPanic(t, "wild read-any", func() { s.ReadAny(wild) })
	if !s.Live(a) || s.Stats().NodeFrees != 0 {
		t.Fatalf("the node at %#x was freed through the wild address %#x", a, wild)
	}
}

func TestHashDetectsChanges(t *testing.T) {
	s := NewSpace()
	a := s.AllocNode()
	h1 := s.Hash()
	s.Write(a, 7)
	if s.Hash() == h1 {
		t.Fatal("hash unchanged after write")
	}
}

// TestAllocatorProperty drives random alloc/free/write sequences and checks
// the core allocator invariants: no two live lines overlap, live accounting
// matches, and data written to a live line persists until freed.
func TestAllocatorProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSpace()
		live := make(map[Addr]uint64) // addr -> expected word0
		var order []Addr
		for i, op := range ops {
			if op%3 != 0 || len(order) == 0 {
				a := s.AllocNode()
				if _, clash := live[a]; clash {
					t.Logf("line %#x allocated twice while live", a)
					return false
				}
				v := uint64(i)*2654435761 + 1
				s.Write(a, v)
				live[a] = v
				order = append(order, a)
			} else {
				idx := int(op/3) % len(order)
				a := order[idx]
				if got := s.Read(a); got != live[a] {
					t.Logf("line %#x = %#x, want %#x", a, got, live[a])
					return false
				}
				s.FreeNode(a)
				delete(live, a)
				order = append(order[:idx], order[idx+1:]...)
			}
			if s.Stats().NodeLive() != uint64(len(live)) {
				t.Logf("live accounting drift: %d vs %d", s.Stats().NodeLive(), len(live))
				return false
			}
		}
		for a, v := range live {
			if s.Read(a) != v {
				t.Logf("surviving line %#x corrupted", a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
