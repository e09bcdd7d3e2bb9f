package core_test

import (
	"testing"
	"testing/quick"

	"condaccess/internal/mem"
	"condaccess/internal/sim"
)

// TestExtensionMatchesArchitecturalModel drives random instruction sequences
// through a thread's sim.Ctx and an independent reference model of the
// paper's Section II-B specification. With a large L1 (no conflict
// evictions) the two must agree on every outcome: cread/cwrite success, the
// revoked bit, and tag-set contents.
func TestExtensionMatchesArchitecturalModel(t *testing.T) {
	f := func(actions []action) bool {
		m := rig(2) // 32K 8-way: no evictions here
		s := m.Space
		lines := make([]mem.Addr, 8)
		for i := range lines {
			lines[i] = s.AllocInfra()
			s.Write(lines[i], uint64(i)*100)
		}
		agree := true
		on(m, 0, func(c *sim.Ctx) { agree = runModel(t, m, c, lines, actions) })
		return agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// action is one step of a random instruction sequence.
type action struct {
	Op     uint8 // %5: cread, cwrite, untagOne, untagAll, remote write
	LineIx uint8 // %8: which of 8 fixed lines
}

// runModel runs actions on core 0's thread c and on the reference model of
// core 0's abstract state, and reports whether they agreed after every step.
func runModel(t *testing.T, m *sim.Machine, c *sim.Ctx, lines []mem.Addr, actions []action) bool {
	s := m.Space
	tagged := map[mem.Addr]bool{}
	revoked := false
	for i, a := range actions {
		addr := lines[a.LineIx%8]
		switch a.Op % 5 {
		case 0: // cread by core 0
			v, ok := c.CRead(addr)
			wantOK := !revoked
			if ok != wantOK {
				t.Logf("step %d: cread ok=%v, model %v", i, ok, wantOK)
				return false
			}
			if ok {
				tagged[addr] = true
				if v != s.Read(addr) {
					t.Logf("step %d: cread value %d != heap %d", i, v, s.Read(addr))
					return false
				}
			}
		case 1: // cwrite by core 0
			ok := c.CWrite(addr, uint64(i))
			wantOK := !revoked && tagged[addr]
			if ok != wantOK {
				t.Logf("step %d: cwrite ok=%v, model %v (revoked=%v tagged=%v)", i, ok, wantOK, revoked, tagged[addr])
				return false
			}
			if ok && s.Read(addr) != uint64(i) {
				t.Logf("step %d: cwrite did not store", i)
				return false
			}
		case 2: // untagOne
			c.UntagOne(addr)
			delete(tagged, addr)
		case 3: // untagAll
			c.UntagAll()
			tagged = map[mem.Addr]bool{}
			revoked = false
		default: // remote write by core 1
			remoteWrite(m, addr, uint64(i)+1000)
			if tagged[addr] {
				revoked = true
				delete(tagged, addr) // the tag leaves with the line
			}
		}
		// Cross-check observable state after every step.
		if c.Revoked() != revoked {
			t.Logf("step %d: revoked=%v, model %v", i, c.Revoked(), revoked)
			return false
		}
		if tags(m, 0) != len(tagged) {
			t.Logf("step %d: tagset size %d, model %d", i, tags(m, 0), len(tagged))
			return false
		}
	}
	return true
}

// TestRevocationMonotoneUntilUntagAll: once set, the accessRevokedBit stays
// set across any sequence of conditional accesses and untagOnes; only
// untagAll clears it (paper Section II-B).
func TestRevocationMonotoneUntilUntagAll(t *testing.T) {
	m := rig(2)
	a := m.Space.AllocNode()
	b := m.Space.AllocNode()
	on(m, 0, func(c *sim.Ctx) {
		c.CRead(a)
		m.Hier.Write(1, a) // revoke
		if !c.Revoked() {
			t.Fatal("not revoked")
		}
		// Nothing below may clear the bit.
		c.CRead(b)
		c.CWrite(b, 1)
		c.UntagOne(a)
		c.UntagOne(b)
		if !c.Revoked() {
			t.Fatal("revocation cleared by something other than untagAll")
		}
		c.UntagAll()
		if c.Revoked() {
			t.Fatal("untagAll did not clear revocation")
		}
	})
}
