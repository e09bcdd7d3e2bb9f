package cache

import (
	"testing"
	"testing/quick"
)

// tiny returns a small hierarchy so eviction paths are easy to exercise.
func tiny(cores int, l *recorder) *Hierarchy {
	p := DefaultParams(cores)
	p.L1Bytes = 4 * 64 * 2 // 4 sets, 2-way
	p.L1Assoc = 2
	p.L2Bytes = 8 * 64 * 4 // 8 sets, 4-way
	p.L2Assoc = 4
	var lis Listener
	if l != nil {
		lis = l
	}
	return New(p, lis)
}

type recorder struct {
	events []struct {
		core int
		line uint64
	}
}

func (r *recorder) LineInvalidated(core int, line uint64) {
	r.events = append(r.events, struct {
		core int
		line uint64
	}{core, line})
}

func TestReadMissThenHit(t *testing.T) {
	h := tiny(2, nil)
	lat1 := h.Read(0, 0x1000)
	lat2 := h.Read(0, 0x1000)
	if lat1 <= lat2 {
		t.Fatalf("miss latency %d should exceed hit latency %d", lat1, lat2)
	}
	if lat2 != h.Params().LatL1Hit {
		t.Fatalf("hit latency = %d, want %d", lat2, h.Params().LatL1Hit)
	}
	if st := h.HasLine(0, 0x1000); st != Shared {
		t.Fatalf("state = %v, want S", st)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	rec := &recorder{}
	h := tiny(3, rec)
	h.Read(0, 0x2000)
	h.Read(1, 0x2000)
	h.Read(2, 0x2000)
	rec.events = nil
	h.Write(0, 0x2000)
	if h.HasLine(0, 0x2000) != Modified {
		t.Fatal("writer not Modified")
	}
	if h.HasLine(1, 0x2000) != Invalid || h.HasLine(2, 0x2000) != Invalid {
		t.Fatal("sharers not invalidated")
	}
	if len(rec.events) != 2 {
		t.Fatalf("listener events = %d, want 2", len(rec.events))
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteModifiedForwardDowngrades(t *testing.T) {
	rec := &recorder{}
	h := tiny(2, rec)
	h.Write(0, 0x3000)
	rec.events = nil
	lat := h.Read(1, 0x3000)
	if h.HasLine(0, 0x3000) != Shared || h.HasLine(1, 0x3000) != Shared {
		t.Fatal("downgrade to S/S failed")
	}
	if lat < h.Params().LatRemoteFwd {
		t.Fatalf("remote forward latency %d too small", lat)
	}
	// Downgrades are not invalidations: the listener must stay silent.
	if len(rec.events) != 0 {
		t.Fatalf("downgrade fired %d invalidation events", len(rec.events))
	}
}

func TestL1EvictionFiresListener(t *testing.T) {
	rec := &recorder{}
	h := tiny(1, rec)
	// 4 sets * 64B: addresses 0x0, 0x1000, 0x2000 map to set 0 (stride 256).
	base := uint64(0x10000)
	stride := uint64(4 * 64) // set count * line size
	h.Read(0, base)
	h.Read(0, base+stride)
	rec.events = nil
	h.Read(0, base+2*stride) // 2-way set overflows: evicts LRU (base)
	if len(rec.events) != 1 || rec.events[0].line != base {
		t.Fatalf("eviction events = %+v, want [{0 %#x}]", rec.events, base)
	}
	if h.HasLine(0, base) != Invalid {
		t.Fatal("victim still present")
	}
}

func TestUpgradeNoSharersIsCheap(t *testing.T) {
	h := tiny(2, nil)
	h.Read(0, 0x4000)
	latUp := h.Write(0, 0x4000)
	h.Read(0, 0x5000)
	h.Read(1, 0x5000)
	latInv := h.Write(0, 0x5000)
	if latUp >= latInv {
		t.Fatalf("lone upgrade (%d) should be cheaper than invalidating upgrade (%d)", latUp, latInv)
	}
}

func TestWriteMissStealsFromRemoteOwner(t *testing.T) {
	rec := &recorder{}
	h := tiny(2, rec)
	h.Write(0, 0x6000)
	rec.events = nil
	h.Write(1, 0x6000)
	if h.HasLine(0, 0x6000) != Invalid || h.HasLine(1, 0x6000) != Modified {
		t.Fatal("ownership transfer failed")
	}
	if len(rec.events) != 1 || rec.events[0].core != 0 {
		t.Fatalf("owner invalidation events = %+v", rec.events)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInclusiveL2BackInvalidation(t *testing.T) {
	rec := &recorder{}
	h := tiny(1, rec)
	// Fill one L2 set (4 ways) and force an eviction. L2 has 8 sets:
	// stride = 8*64 = 512.
	base := uint64(0x20000)
	stride := uint64(8 * 64)
	for i := uint64(0); i < 4; i++ {
		h.Read(0, base+i*stride)
	}
	rec.events = nil
	h.Read(0, base+4*stride)
	// The L2 victim's L1 copy (if still resident) must be back-invalidated;
	// either way invariants must hold.
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.Stats().BackInvals == 0 && len(rec.events) == 0 {
		t.Log("victim was already evicted from L1; acceptable")
	}
}

// TestCoherenceProperty fires random reads/writes from random cores and
// checks the MSI invariants after every step.
func TestCoherenceProperty(t *testing.T) {
	type step struct {
		Core  uint8
		Line  uint8
		Write bool
	}
	f := func(steps []step) bool {
		h := tiny(4, &recorder{})
		for _, s := range steps {
			addr := uint64(s.Line) * 64
			core := int(s.Core) % 4
			if s.Write {
				h.Write(core, addr)
			} else {
				h.Read(core, addr)
			}
			if err := h.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := tiny(2, nil)
	h.Read(0, 0x100)
	h.Read(0, 0x100)
	h.Read(1, 0x100)
	h.Write(1, 0x100)
	st := h.Stats()
	if st.L1Hits == 0 || st.L1Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPortHits pins the port's hit path: it serves exactly the resident
// lines, changes nothing when it declines, stamps LRU like a hierarchy hit
// (so it steers the next victim), and is counted in L1Hits.
func TestPortHits(t *testing.T) {
	rec := &recorder{}
	h := tiny(1, rec)
	p := h.Port(0)
	base, stride := uint64(0x10000), uint64(4*64) // one 2-way set of tiny's L1
	if p.ReadHit(base) || p.WriteHit(base) {
		t.Fatal("port served a cold line")
	}
	if st := h.Stats(); st != (Stats{}) {
		t.Fatalf("a declined port access changed the stats: %+v", st)
	}
	h.Read(0, base)
	h.Read(0, base+stride)
	if !p.ReadHit(base) {
		t.Fatal("port declined a resident line")
	}
	if p.WriteHit(base) {
		t.Fatal("port served a write to a Shared line, which needs an upgrade")
	}
	rec.events = nil
	h.Read(0, base+2*stride) // the port's hit made base+stride the LRU way
	if len(rec.events) != 1 || rec.events[0].line != base+stride {
		t.Fatalf("eviction events = %+v, want [{0 %#x}]", rec.events, base+stride)
	}
	h.Write(0, base) // S->M upgrade: a hit, served by the hierarchy
	if !p.WriteHit(base) || p.HitLatency() != h.Params().LatL1Hit {
		t.Fatal("port declined a write to a Modified line")
	}
	if st := h.Stats(); st.L1Hits != 3 || st.L1Misses != 3 {
		t.Fatalf("L1 hits/misses = %d/%d, want 3/3", st.L1Hits, st.L1Misses)
	}
	h.Reset()
	if st := h.Stats(); st != (Stats{}) {
		t.Fatalf("Reset left stats %+v", st)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	p := DefaultParams(1)
	p.L1Bytes = 1000 // not divisible
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	New(p, nil)
}
