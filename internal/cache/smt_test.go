package cache

import "testing"

// smtRig builds a 2-way SMT hierarchy: 4 hardware threads on 2 physical
// cores/L1s.
func smtRig(l *recorder) *Hierarchy {
	p := DefaultParams(4)
	p.ThreadsPerCore = 2
	var lis Listener
	if l != nil {
		lis = l
	}
	return New(p, lis)
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
	h := smtRig(nil)
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
	rec := &recorder{}
	h := smtRig(rec)
	h.Read(0, 0x2000)
	h.Read(1, 0x2000)
	rec.events = nil
	// Thread 1 writes: its sibling (thread 0) must get the event even though
	// the line stays resident in their shared L1; thread 1 itself must not.
	h.Write(1, 0x2000)
	if len(rec.events) != 1 || rec.events[0].core != 0 || rec.events[0].line != 0x2000 {
		t.Fatalf("events = %+v, want exactly thread 0 on 0x2000", rec.events)
	}
	if h.HasLine(0, 0x2000) != Modified {
		t.Fatal("line should stay resident (Modified) in the shared L1")
	}
}

// TestSMTPortDeclinesWriteHits: on a shared L1 even a write hit must revoke
// the siblings' tags, so the port leaves it to Hierarchy.Write. Read hits
// notify nobody and stay on the port.
func TestSMTPortDeclinesWriteHits(t *testing.T) {
	rec := &recorder{}
	h := smtRig(rec)
	h.Write(0, 0x2000)
	p := h.Port(0)
	if p.WriteHit(0x2000) {
		t.Fatal("SMT port served a write hit without notifying the sibling")
	}
	if !p.ReadHit(0x2000) {
		t.Fatal("SMT port declined a read hit")
	}
	rec.events = nil
	if lat := h.Write(0, 0x2000); lat != h.Params().LatL1Hit {
		t.Fatalf("write hit latency = %d, want %d", lat, h.Params().LatL1Hit)
	}
	if len(rec.events) != 1 || rec.events[0].core != 1 {
		t.Fatalf("events = %+v, want exactly thread 1", rec.events)
	}
}

func TestSMTRemoteInvalidationNotifiesBothHyperthreads(t *testing.T) {
	rec := &recorder{}
	h := smtRig(rec)
	h.Read(0, 0x3000) // core 0's L1 (threads 0 and 1)
	rec.events = nil
	h.Write(2, 0x3000) // core 1 steals ownership
	// Both hyperthreads of core 0 must hear the invalidation.
	seen := map[int]bool{}
	for _, ev := range rec.events {
		if ev.line == 0x3000 {
			seen[ev.core] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("events = %+v, want both threads 0 and 1", rec.events)
	}
	// Thread 3 (sibling of the writer) also gets a sibling notification.
	if !seen[3] {
		t.Fatalf("writer's sibling (thread 3) not notified: %+v", rec.events)
	}
	if seen[2] {
		t.Fatalf("writer itself notified: %+v", rec.events)
	}
}

func TestSMTInvariantsHold(t *testing.T) {
	h := smtRig(nil)
	for i := 0; i < 200; i++ {
		tid := i % 4
		addr := uint64((i*7)%32) * 64
		if i%3 == 0 {
			h.Write(tid, addr)
		} else {
			h.Read(tid, addr)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
