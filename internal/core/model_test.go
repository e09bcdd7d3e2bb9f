package core

import (
	"testing"
	"testing/quick"

	"condaccess/internal/cache"
	"condaccess/internal/mem"
)

// TestExtensionMatchesArchitecturalModel drives random instruction sequences
// against the extension and an independent reference model of the paper's
// Section II-B specification. With a large L1 (no conflict evictions) the
// two must agree on every outcome: cread/cwrite success, the revoked bit,
// and tag-set contents.
func TestExtensionMatchesArchitecturalModel(t *testing.T) {
	type action struct {
		Op     uint8 // %5: cread, cwrite, untagOne, untagAll, remote write
		LineIx uint8 // %8: which of 8 fixed lines
	}
	f := func(actions []action) bool {
		h := cache.New(cache.DefaultParams(2)) // 32K 8-way: no evictions here
		s := mem.NewSpace()
		e := New(h, s)
		e.Check = true

		lines := make([]mem.Addr, 8)
		for i := range lines {
			lines[i] = s.AllocInfra()
			s.Write(lines[i], uint64(i)*100)
		}

		// Reference model for core 0 (the paper's abstract state).
		tags := map[mem.Addr]bool{}
		revoked := false

		for i, a := range actions {
			addr := lines[a.LineIx%8]
			switch a.Op % 5 {
			case 0: // cread by core 0
				v, _, ok := e.CRead(0, addr)
				wantOK := !revoked
				if ok != wantOK {
					t.Logf("step %d: cread ok=%v, model %v", i, ok, wantOK)
					return false
				}
				if ok {
					tags[addr] = true
					if v != s.Read(addr) {
						t.Logf("step %d: cread value %d != heap %d", i, v, s.Read(addr))
						return false
					}
				}
			case 1: // cwrite by core 0
				_, ok := e.CWrite(0, addr, uint64(i))
				wantOK := !revoked && tags[addr]
				if ok != wantOK {
					t.Logf("step %d: cwrite ok=%v, model %v (revoked=%v tagged=%v)", i, ok, wantOK, revoked, tags[addr])
					return false
				}
				if ok && s.Read(addr) != uint64(i) {
					t.Logf("step %d: cwrite did not store", i)
					return false
				}
			case 2: // untagOne
				e.UntagOne(0, addr)
				delete(tags, addr)
			case 3: // untagAll
				e.UntagAll(0)
				tags = map[mem.Addr]bool{}
				revoked = false
			default: // remote write by core 1
				h.Write(1, addr)
				s.Write(addr, uint64(i)+1000)
				if tags[addr] {
					revoked = true
					delete(tags, addr) // the tag leaves with the line
				}
			}
			// Cross-check observable state after every step.
			if e.ports[0].Revoked() != revoked {
				t.Logf("step %d: revoked=%v, model %v", i, e.ports[0].Revoked(), revoked)
				return false
			}
			if e.ports[0].TagCount() != len(tags) {
				t.Logf("step %d: tagset size %d, model %d", i, e.ports[0].TagCount(), len(tags))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRevocationMonotoneUntilUntagAll: once set, the accessRevokedBit stays
// set across any sequence of conditional accesses and untagOnes; only
// untagAll clears it (paper Section II-B).
func TestRevocationMonotoneUntilUntagAll(t *testing.T) {
	e, s := rig(2)
	a := s.AllocNode()
	b := s.AllocNode()
	e.CRead(0, a)
	e.h.Write(1, a) // revoke
	if !e.ports[0].Revoked() {
		t.Fatal("not revoked")
	}
	// Nothing below may clear the bit.
	e.CRead(0, b)
	e.CWrite(0, b, 1)
	e.UntagOne(0, a)
	e.UntagOne(0, b)
	if !e.ports[0].Revoked() {
		t.Fatal("revocation cleared by something other than untagAll")
	}
	e.UntagAll(0)
	if e.ports[0].Revoked() {
		t.Fatal("untagAll did not clear revocation")
	}
}
