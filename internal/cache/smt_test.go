package cache

import "testing"

// smtRig builds a 2-way SMT hierarchy: 4 hardware threads on 2 physical
// cores/L1s.
func smtRig() *Hierarchy {
	p := DefaultParams(4)
	p.ThreadsPerCore = 2
	return New(p)
}

func TestSMTGeometry(t *testing.T) {
	p := DefaultParams(8)
	p.ThreadsPerCore = 2
	if p.L1Count() != 4 || p.SMTWidth() != 2 {
		t.Fatalf("L1Count=%d SMTWidth=%d, want 4, 2", p.L1Count(), p.SMTWidth())
	}
	p.ThreadsPerCore = 3
	defer func() {
		if recover() == nil {
			t.Fatal("8 threads on 3-way SMT accepted")
		}
	}()
	p.Validate()
}

func TestSMTSiblingsShareL1(t *testing.T) {
	h := smtRig()
	h.Read(0, 0x1000) // thread 0 fills the shared L1
	if h.HasLine(1, 0x1000) != Shared {
		t.Fatal("sibling thread 1 does not see the shared L1 line")
	}
	if h.HasLine(2, 0x1000) != Invalid {
		t.Fatal("thread 2 (other core) sees the line")
	}
	// A sibling hit must cost only an L1 hit.
	if lat := h.Read(1, 0x1000); lat != h.Params().LatL1Hit {
		t.Fatalf("sibling hit latency = %d, want %d", lat, h.Params().LatL1Hit)
	}
}

func TestSMTSiblingWriteNotifiesSiblingOnly(t *testing.T) {
	h := smtRig()
	readTag(h, 0, 0x2000)
	readTag(h, 1, 0x2000)
	// Thread 1 writes: its sibling (thread 0) loses its tag even though the
	// line stays resident in their shared L1; thread 1 keeps its own.
	h.Write(1, 0x2000)
	if tagged(h, 0, 0x2000) || !revoked(h, 0) {
		t.Fatal("the writer's sibling kept its tag")
	}
	if !tagged(h, 1, 0x2000) || revoked(h, 1) {
		t.Fatal("the writer lost its own tag")
	}
	if h.HasLine(0, 0x2000) != Modified {
		t.Fatal("line should stay resident (Modified) in the shared L1")
	}
}

// TestSMTPortDeclinesWriteHits: on a shared L1 even a write hit must revoke
// the siblings' tags, so the port leaves it to Hierarchy.Write. Read hits
// revoke nobody and stay on the port.
func TestSMTPortDeclinesWriteHits(t *testing.T) {
	h := smtRig()
	h.Write(0, 0x2000)
	readTag(h, 0, 0x2000)
	readTag(h, 1, 0x2000)
	p := h.Port(0)
	if p.WriteHit(0x2000) {
		t.Fatal("SMT port served a write hit without revoking the sibling")
	}
	if !p.ReadHit(0x2000) || revoked(h, 1) {
		t.Fatal("SMT port declined a read hit, or the read revoked the sibling")
	}
	if lat := h.Write(0, 0x2000); lat != h.Params().LatL1Hit {
		t.Fatalf("write hit latency = %d, want %d", lat, h.Params().LatL1Hit)
	}
	if tagged(h, 1, 0x2000) || !revoked(h, 1) || revoked(h, 0) {
		t.Fatal("a write hit must revoke exactly the writer's sibling")
	}
}

// TestSMTRemoteInvalidationNotifiesBothHyperthreads: a write from another
// core drops the line from the shared L1, revoking both hyperthreads that
// tagged it. The writing core's threads stay unrevoked: the line was not in
// their L1, so neither can have held a tag on it.
func TestSMTRemoteInvalidationNotifiesBothHyperthreads(t *testing.T) {
	h := smtRig()
	readTag(h, 0, 0x3000) // core 0's L1 (threads 0 and 1)
	readTag(h, 1, 0x3000)
	readTag(h, 3, 0x4000) // core 1's L1 (threads 2 and 3)
	h.Write(2, 0x3000)    // core 1 steals ownership
	for tid := 0; tid <= 1; tid++ {
		if tagged(h, tid, 0x3000) || !revoked(h, tid) {
			t.Fatalf("hyperthread %d of the invalidated core was not revoked", tid)
		}
	}
	if revoked(h, 2) || revoked(h, 3) || !tagged(h, 3, 0x4000) {
		t.Fatal("the writing core's threads were revoked")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSMTInvariantsHold runs a fixed mix of reads, writes and tags over the
// SMT rig, checking the MSI and tag invariants after every step: sibling
// writes and remote invalidations must drop exactly the tags on their line.
func TestSMTInvariantsHold(t *testing.T) {
	h := smtRig()
	for i := 0; i < 200; i++ {
		// 31 lines, prime to the 4 threads: every line passes through every
		// thread, so sibling writes and remote invalidations meet tags.
		tid := i % 4
		addr := uint64((i*7)%31) * 64
		switch i % 3 {
		case 0:
			h.Write(tid, addr)
		case 1:
			h.Read(tid, addr)
		default:
			if p := h.Port(tid); p.Revoked() {
				p.UntagAll() // a revoked operation restarts untagged
			}
			readTag(h, tid, addr)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if h.Revocations() == 0 {
		t.Fatal("no step revoked a tag")
	}
}
