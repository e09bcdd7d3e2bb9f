package extbst

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

func sequentialSuite(t *testing.T, m *sim.Machine, s setIface, root uint64) {
	t.Helper()
	m.Spawn(func(c *sim.Ctx) {
		keys := []uint64{50, 25, 75, 10, 30, 60, 90, 5, 15, 27, 35}
		for _, k := range keys {
			if !s.Insert(c, k) {
				t.Errorf("insert %d failed", k)
			}
		}
		for _, k := range keys {
			if s.Insert(c, k) {
				t.Errorf("duplicate insert %d succeeded", k)
			}
			if !s.Contains(c, k) {
				t.Errorf("contains %d = false after insert", k)
			}
		}
		if s.Contains(c, 42) {
			t.Error("contains absent key")
		}
		for _, k := range []uint64{25, 5, 90, 50} {
			if !s.Delete(c, k) {
				t.Errorf("delete %d failed", k)
			}
			if s.Contains(c, k) {
				t.Errorf("contains %d = true after delete", k)
			}
			if s.Delete(c, k) {
				t.Errorf("double delete %d succeeded", k)
			}
		}
	})
	m.Run()
	if msg := CheckShape(m.Space, root); msg != "" {
		t.Fatalf("shape violated: %s", msg)
	}
	want := []uint64{10, 15, 27, 30, 35, 60, 75}
	got := Keys(m.Space, root)
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestCASequential(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1, Check: true})
	tr := NewCA(m.Space)
	sequentialSuite(t, m, tr, tr.Root)
	// Immediate reclamation: 4 deletes freed 4 leaves + 4 internals.
	if st := m.Space.Stats(); st.NodeFrees != 8 {
		t.Fatalf("frees = %d, want 8", st.NodeFrees)
	}
}

func TestGuardedSequentialAllSchemes(t *testing.T) {
	for _, name := range smr.Names() {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 1, Check: true})
			r, err := smr.New(name, m.Space, 1, smr.Options{ReclaimEvery: 4, EpochEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			tr := NewGuarded(m.Space, r)
			sequentialSuite(t, m, tr, tr.Root)
		})
	}
}

func runConcurrent(t *testing.T, m *sim.Machine, s setIface, seed uint64, threads, ops int, keyRange uint64) {
	t.Helper()
	for i := 0; i < threads; i++ {
		m.Spawn(func(c *sim.Ctx) {
			rng := sim.ThreadRNG(seed, i)
			for j := 0; j < ops; j++ {
				key := rng.Uint64n(keyRange) + 1
				switch rng.Intn(3) {
				case 0:
					s.Insert(c, key)
				case 1:
					s.Delete(c, key)
				default:
					s.Contains(c, key)
				}
			}
		})
	}
	m.Run()
}

func TestCAConcurrent(t *testing.T) {
	m := sim.New(sim.Config{Cores: 8, Check: true})
	tr := NewCA(m.Space)
	runConcurrent(t, m, tr, 3, 8, 400, 128)
	if msg := CheckShape(m.Space, tr.Root); msg != "" {
		t.Fatalf("shape violated: %s", msg)
	}
	// Immediate reclamation: live nodes == tree nodes (keys + internals).
	n := Len(m.Space, tr.Root)
	wantLive := uint64(2 * n) // each key has one leaf and one internal above it
	if st := m.Space.Stats(); st.NodeLive() != wantLive {
		t.Fatalf("live = %d, want %d for %d keys", st.NodeLive(), wantLive, n)
	}
}

func TestGuardedConcurrentAllSchemes(t *testing.T) {
	for _, name := range smr.Names() {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 8, Check: true})
			r, err := smr.New(name, m.Space, 8, smr.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tr := NewGuarded(m.Space, r)
			runConcurrent(t, m, tr, 4, 8, 400, 128)
			if msg := CheckShape(m.Space, tr.Root); msg != "" {
				t.Fatalf("shape violated: %s", msg)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := sim.New(sim.Config{Cores: 4, Check: true})
		tr := NewCA(m.Space)
		runConcurrent(t, m, tr, 9, 4, 200, 64)
		return m.MaxClock(), m.Space.Hash()
	}
	c1, h1 := run()
	c2, h2 := run()
	if c1 != c2 || h1 != h2 {
		t.Fatalf("nondeterministic: clocks %d/%d heap %x/%x", c1, c2, h1, h2)
	}
}
