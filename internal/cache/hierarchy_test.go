package cache

import (
	"testing"
	"testing/quick"
)

// tiny returns a small hierarchy so eviction paths are easy to exercise.
func tiny(cores int) *Hierarchy {
	p := DefaultParams(cores)
	p.L1Bytes = 4 * 64 * 2 // 4 sets, 2-way
	p.L1Assoc = 2
	p.L2Bytes = 8 * 64 * 4 // 8 sets, 4-way
	p.L2Assoc = 4
	return New(p)
}

// readTag loads addr on hardware thread tid and tags its line, as a
// successful cread does.
func readTag(h *Hierarchy, tid int, addr uint64) {
	h.Read(tid, addr)
	if p := h.Port(tid); !p.Probe(addr) {
		p.Tag(addr)
	}
}

func tagged(h *Hierarchy, tid int, addr uint64) bool {
	p := h.Port(tid)
	return p.Probe(addr)
}

func revoked(h *Hierarchy, tid int) bool {
	p := h.Port(tid)
	return p.Revoked()
}

func TestReadMissThenHit(t *testing.T) {
	h := tiny(2)
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
	h := tiny(3)
	readTag(h, 0, 0x2000)
	readTag(h, 1, 0x2000)
	readTag(h, 2, 0x2000)
	h.Write(0, 0x2000)
	if h.HasLine(0, 0x2000) != Modified {
		t.Fatal("writer not Modified")
	}
	if h.HasLine(1, 0x2000) != Invalid || h.HasLine(2, 0x2000) != Invalid {
		t.Fatal("sharers not invalidated")
	}
	// The invalidated sharers lose their tags and are revoked; the writer
	// keeps its own.
	for tid := 1; tid <= 2; tid++ {
		if tagged(h, tid, 0x2000) || !revoked(h, tid) {
			t.Fatalf("sharer %d: tagged %v, revoked %v; want the tag gone and access revoked", tid, tagged(h, tid, 0x2000), revoked(h, tid))
		}
	}
	if !tagged(h, 0, 0x2000) || revoked(h, 0) {
		t.Fatal("the writer lost its own tag")
	}
	if n := h.Revocations(); n != 2 {
		t.Fatalf("revocations = %d, want 2", n)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteModifiedForwardDowngrades(t *testing.T) {
	h := tiny(2)
	h.Write(0, 0x3000)
	readTag(h, 0, 0x3000)
	lat := h.Read(1, 0x3000)
	if h.HasLine(0, 0x3000) != Shared || h.HasLine(1, 0x3000) != Shared {
		t.Fatal("downgrade to S/S failed")
	}
	if lat < h.Params().LatRemoteFwd {
		t.Fatalf("remote forward latency %d too small", lat)
	}
	// Downgrades are not invalidations: the owner keeps its tag.
	if !tagged(h, 0, 0x3000) || revoked(h, 0) || h.Revocations() != 0 {
		t.Fatal("a downgrade revoked the owner's tag")
	}
}

func TestL1EvictionRevokes(t *testing.T) {
	h := tiny(1)
	// 4 sets * 64B: addresses base, base+stride, base+2*stride map to one set.
	base := uint64(0x10000)
	stride := uint64(4 * 64) // set count * line size
	readTag(h, 0, base)
	h.Read(0, base+stride)
	h.Read(0, base+2*stride) // 2-way set overflows: evicts LRU (base)
	if h.HasLine(0, base) != Invalid {
		t.Fatal("victim still present")
	}
	p := h.Port(0)
	if tagged(h, 0, base) || p.TagCount() != 0 || !revoked(h, 0) {
		t.Fatal("evicting a tagged line did not drop the tag and revoke")
	}
	if h.Stats().L1Evictions != 1 || h.Revocations() != 1 {
		t.Fatalf("evictions %d, revocations %d; want 1, 1", h.Stats().L1Evictions, h.Revocations())
	}
}

func TestUpgradeNoSharersIsCheap(t *testing.T) {
	h := tiny(2)
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
	h := tiny(2)
	h.Write(0, 0x6000)
	readTag(h, 0, 0x6000)
	h.Write(1, 0x6000)
	if h.HasLine(0, 0x6000) != Invalid || h.HasLine(1, 0x6000) != Modified {
		t.Fatal("ownership transfer failed")
	}
	if tagged(h, 0, 0x6000) || !revoked(h, 0) || revoked(h, 1) {
		t.Fatal("the stolen owner copy's tag was not revoked, or the thief was")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInclusiveL2BackInvalidation: core 0 tags line A, then core 1 fills
// A's L2 set. The L2 evicts A, its least recently used line, and must drop
// core 0's L1 copy with the tag on it.
func TestInclusiveL2BackInvalidation(t *testing.T) {
	h := tiny(2)
	// tiny's L2 has 8 sets of 4 ways: stride = 8*64 = 512.
	a := uint64(0x20000)
	stride := uint64(8 * 64)
	readTag(h, 0, a)
	for i := uint64(1); i <= 4; i++ {
		h.Read(1, a+i*stride)
	}
	if n := h.Stats().BackInvals; n != 1 {
		t.Fatalf("back-invalidations = %d, want 1", n)
	}
	if h.HasLine(0, a) != Invalid {
		t.Fatal("the L2 victim is still in core 0's L1")
	}
	if tagged(h, 0, a) || !revoked(h, 0) {
		t.Fatal("back-invalidating a tagged line did not revoke")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCoherenceProperty fires random reads and writes from random cores,
// tagging some of the lines they leave resident, and checks the MSI and tag
// invariants after every step: every drop path (eviction, invalidation,
// owner steal, back-invalidation) runs against them. On the 64-core
// hierarchy the steps share 64 lines, twice the tiny L2's capacity, so both
// invalidations and L2 evictions walk sharer sets up to bit 63.
func TestCoherenceProperty(t *testing.T) {
	type step struct {
		Core  uint8
		Line  uint8
		Write bool
		Tag   bool
	}
	for _, in := range []struct{ cores, lines int }{{4, 256}, {64, 64}} {
		f := func(steps []step) bool {
			h := tiny(in.cores)
			for _, s := range steps {
				addr := uint64(int(s.Line)%in.lines) * 64
				core := int(s.Core) % in.cores
				if s.Write {
					h.Write(core, addr)
				} else {
					h.Read(core, addr)
				}
				if p := h.Port(core); s.Tag {
					if p.Revoked() {
						p.UntagAll() // a revoked operation restarts untagged
					}
					if !p.Probe(addr) {
						p.Tag(addr)
					}
				}
				if err := h.CheckInvariants(); err != nil {
					t.Log(err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("%d cores: %v", in.cores, err)
		}
	}
}

// TestCheckInvariantsCatchesEmptyMaskDrift shows the empty-way mask check
// can fail: on a warm hierarchy, with full sets, part-full sets and empty
// sets in both levels, flipping any one bit of core 0's L1 masks or the L2's
// must be reported.
func TestCheckInvariantsCatchesEmptyMaskDrift(t *testing.T) {
	h := tiny(2)
	for _, line := range []uint64{0, 1, 2, 3, 4, 5, 8, 16, 24} {
		h.Read(0, line*64)
		h.Read(1, (line+64)*64)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, lv := range []struct {
		name string
		c    *ways
	}{{"L1", &h.l1[0].ways}, {"L2", &h.l2.ways}} {
		for set := range lv.c.empty {
			for way := range lv.c.assoc + 1 {
				lv.c.empty[set] ^= 1 << way
				if err := h.CheckInvariants(); err == nil {
					t.Errorf("%s set %d: flipping empty-way bit %d went unreported", lv.name, set, way)
				}
				lv.c.empty[set] ^= 1 << way
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := tiny(2)
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
	h := tiny(1)
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
	h.Read(0, base+2*stride) // the port's hit made base+stride the LRU way
	if h.HasLine(0, base+stride) != Invalid || h.HasLine(0, base) != Shared {
		t.Fatalf("victim: base+stride is %v and base is %v, want I and S", h.HasLine(0, base+stride), h.HasLine(0, base))
	}
	h.Write(0, base) // S->M upgrade: a hit, served by the hierarchy
	if !p.WriteHit(base) || p.HitLatency() != h.Params().LatL1Hit {
		t.Fatal("port declined a write to a Modified line")
	}
	if st := h.Stats(); st.L1Hits != 3 || st.L1Misses != 3 {
		t.Fatalf("L1 hits/misses = %d/%d, want 3/3", st.L1Hits, st.L1Misses)
	}
	p.Tag(base)
	p.Revoke()
	h.Reset()
	if st := h.Stats(); st != (Stats{}) {
		t.Fatalf("Reset left stats %+v", st)
	}
	if p.TagCount() != 0 || p.Revoked() || h.Revocations() != 0 {
		t.Fatal("Reset left tags, the revoked bit or the revocation count")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Params)
	}{
		{"L1 not whole sets", func(p *Params) { p.L1Bytes = 1000 }},
		{"L1 65-way", func(p *Params) { p.L1Bytes, p.L1Assoc = 65*64, 65 }},
		{"L2 65-way", func(p *Params) { p.L2Bytes, p.L2Assoc = 4*65*64, 65 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams(1)
			tc.edit(&p)
			defer func() {
				if recover() == nil {
					t.Fatal("bad geometry accepted")
				}
			}()
			New(p)
		})
	}
}

// TestSixtyFourWays: the widest set an empty-way mask holds fills all 64
// ways before its first eviction.
func TestSixtyFourWays(t *testing.T) {
	p := DefaultParams(1)
	p.L1Bytes, p.L1Assoc = 64*64, 64 // one set
	h := New(p)
	for line := range uint64(64) {
		h.Read(0, line*64)
	}
	if n := h.Stats().L1Evictions; n != 0 {
		t.Fatalf("%d evictions filling 64 ways, want 0", n)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.Read(0, 64*64)
	if n := h.Stats().L1Evictions; n != 1 || h.HasLine(0, 0) != Invalid {
		t.Fatalf("the 65th line made %d evictions, line 0 is %v; want 1 and I", n, h.HasLine(0, 0))
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
