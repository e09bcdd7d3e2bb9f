package hashtable

import (
	"testing"

	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

type setIface interface {
	Insert(c *sim.Ctx, key uint64) bool
	Delete(c *sim.Ctx, key uint64) bool
	Contains(c *sim.Ctx, key uint64) bool
}

func sequentialSuite(t *testing.T, m *sim.Machine, s setIface) {
	t.Helper()
	m.Spawn(func(c *sim.Ctx) {
		for k := uint64(1); k <= 300; k++ {
			if !s.Insert(c, k) {
				t.Errorf("insert %d failed", k)
			}
		}
		for k := uint64(1); k <= 300; k += 3 {
			if !s.Delete(c, k) {
				t.Errorf("delete %d failed", k)
			}
		}
		for k := uint64(1); k <= 300; k++ {
			want := k%3 != 1
			if s.Contains(c, k) != want {
				t.Errorf("contains %d = %v, want %v", k, !want, want)
			}
		}
	})
	m.Run()
}

func TestCASequential(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1, Check: true})
	tbl := NewCA(m.Space, 16)
	sequentialSuite(t, m, tbl)
	if got := tbl.Len(m.Space); got != 200 {
		t.Fatalf("len = %d, want 200", got)
	}
	// Immediate reclamation: live == table size.
	if st := m.Space.Stats(); st.NodeLive() != 200 {
		t.Fatalf("live = %d, want 200", st.NodeLive())
	}
}

func TestGuardedSequentialAllSchemes(t *testing.T) {
	for _, name := range smr.Names() {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 1, Check: true})
			r, err := smr.New(name, m.Space, 1, smr.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tbl := NewGuarded(m.Space, r, 16)
			sequentialSuite(t, m, tbl)
			if got := tbl.Len(m.Space); got != 200 {
				t.Fatalf("len = %d, want 200", got)
			}
		})
	}
}

func TestCAConcurrent(t *testing.T) {
	m := sim.New(sim.Config{Cores: 8, Check: true})
	tbl := NewCA(m.Space, 16)
	for i := 0; i < 8; i++ {
		m.Spawn(func(c *sim.Ctx) {
			rng := sim.ThreadRNG(3, i)
			for j := 0; j < 400; j++ {
				key := rng.Uint64n(256) + 1
				switch rng.Intn(3) {
				case 0:
					tbl.Insert(c, key)
				case 1:
					tbl.Delete(c, key)
				default:
					tbl.Contains(c, key)
				}
			}
		})
	}
	m.Run()
	if st := m.Space.Stats(); int(st.NodeLive()) != tbl.Len(m.Space) {
		t.Fatalf("live %d != table size %d", st.NodeLive(), tbl.Len(m.Space))
	}
}

func TestBucketsIndependent(t *testing.T) {
	// Keys that collide mod 4 land in the same bucket and stay sorted there.
	m := sim.New(sim.Config{Cores: 1, Check: true})
	tbl := NewCA(m.Space, 4)
	m.Spawn(func(c *sim.Ctx) {
		for _, k := range []uint64{4, 8, 12, 16, 1, 5, 9} {
			tbl.Insert(c, k)
		}
		for _, k := range []uint64{4, 8, 12, 16, 1, 5, 9} {
			if !tbl.Contains(c, k) {
				t.Errorf("contains %d = false", k)
			}
		}
		if tbl.Contains(c, 2) || tbl.Contains(c, 13) {
			t.Error("contains reported an absent key")
		}
	})
	m.Run()
}

func TestGuardedConcurrentAndCounters(t *testing.T) {
	m := sim.New(sim.Config{Cores: 8, Check: true})
	r, err := smr.New("rcu", m.Space, 8, smr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewGuarded(m.Space, r, 16)
	if tbl.Reclaimer() != r {
		t.Fatal("Reclaimer accessor broken")
	}
	for i := 0; i < 8; i++ {
		m.Spawn(func(c *sim.Ctx) {
			rng := sim.ThreadRNG(9, i)
			for j := 0; j < 300; j++ {
				key := rng.Uint64n(128) + 1
				switch rng.Intn(3) {
				case 0:
					tbl.Insert(c, key)
				case 1:
					tbl.Delete(c, key)
				default:
					tbl.Contains(c, key)
				}
			}
		})
	}
	m.Run()
	// The table must satisfy set semantics on a drain.
	m.Spawn(func(c *sim.Ctx) {
		for k := uint64(1); k <= 128; k++ {
			if tbl.Contains(c, k) && !tbl.Delete(c, k) {
				t.Errorf("contains(%d) true but delete failed", k)
			}
		}
	})
	m.Run()
	if n := tbl.Len(m.Space); n != 0 {
		t.Fatalf("table not empty after drain: %d", n)
	}
}

func TestBadBucketCountPanics(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("zero buckets accepted")
		}
	}()
	NewCA(m.Space, 0)
}
