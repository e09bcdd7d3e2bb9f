package stack

import (
	"testing"

	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

type stackIface interface {
	Push(c *sim.Ctx, key uint64)
	Pop(c *sim.Ctx) (uint64, bool)
	Peek(c *sim.Ctx) (uint64, bool)
}

func TestCASequentialLIFO(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1, Check: true})
	s := NewCA(m.Space)
	m.Spawn(func(c *sim.Ctx) {
		if _, ok := s.Pop(c); ok {
			t.Error("pop from empty stack succeeded")
		}
		for k := uint64(1); k <= 10; k++ {
			s.Push(c, k)
		}
		if top, ok := s.Peek(c); !ok || top != 10 {
			t.Errorf("peek = %d,%v, want 10,true", top, ok)
		}
		for k := uint64(10); k >= 1; k-- {
			got, ok := s.Pop(c)
			if !ok || got != k {
				t.Errorf("pop = %d,%v, want %d,true", got, ok, k)
			}
		}
		if _, ok := s.Pop(c); ok {
			t.Error("drained stack pop succeeded")
		}
	})
	m.Run()
	// Immediate reclamation: all 10 nodes freed.
	if st := m.Space.Stats(); st.NodeLive() != 0 {
		t.Fatalf("live nodes = %d, want 0", st.NodeLive())
	}
}

func TestGuardedSequentialLIFOAllSchemes(t *testing.T) {
	for _, name := range smr.Names() {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 1, Check: true})
			r, err := smr.New(name, m.Space, 1, smr.Options{ReclaimEvery: 4, EpochEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			s := NewGuarded(m.Space, r)
			m.Spawn(func(c *sim.Ctx) {
				for round := 0; round < 5; round++ {
					for k := uint64(1); k <= 20; k++ {
						s.Push(c, k)
					}
					for k := uint64(20); k >= 1; k-- {
						if got, ok := s.Pop(c); !ok || got != k {
							t.Errorf("round %d: pop = %d,%v, want %d", round, got, ok, k)
						}
					}
				}
			})
			m.Run()
		})
	}
}

// runMixed drives a push/pop/peek mix and checks conservation: every pushed
// key is either popped or still on the stack at the end.
func runMixed(t *testing.T, m *sim.Machine, s stackIface, seed uint64, threads, ops int) {
	t.Helper()
	pushed := make([]uint64, threads)
	popped := make([]uint64, threads)
	for i := 0; i < threads; i++ {
		m.Spawn(func(c *sim.Ctx) {
			id := c.ThreadID()
			rng := sim.ThreadRNG(seed, i)
			for j := 0; j < ops; j++ {
				switch rng.Intn(3) {
				case 0:
					s.Push(c, rng.Uint64n(1000)+1)
					pushed[id]++
				case 1:
					if _, ok := s.Pop(c); ok {
						popped[id]++
					}
				default:
					s.Peek(c)
				}
			}
		})
	}
	m.Run()
	var totPush, totPop uint64
	for i := 0; i < threads; i++ {
		totPush += pushed[i]
		totPop += popped[i]
	}
	// Count what remains by popping single-threadedly.
	var rest uint64
	m.Spawn(func(c *sim.Ctx) {
		for {
			if _, ok := s.Pop(c); !ok {
				return
			}
			rest++
		}
	})
	m.Run()
	if totPush != totPop+rest {
		t.Fatalf("conservation violated: pushed %d, popped %d + rest %d", totPush, totPop, rest)
	}
}

func TestCAConcurrent(t *testing.T) {
	m := sim.New(sim.Config{Cores: 8, Check: true})
	s := NewCA(m.Space)
	runMixed(t, m, s, 3, 8, 400)
	if st := m.Space.Stats(); st.NodeLive() != 0 {
		t.Fatalf("after drain, live nodes = %d, want 0 (immediate reclamation)", st.NodeLive())
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
			s := NewGuarded(m.Space, r)
			runMixed(t, m, s, 4, 8, 400)
		})
	}
}
