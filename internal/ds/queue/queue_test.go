package queue

import (
	"sort"
	"testing"

	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

type queueIface interface {
	Enqueue(c *sim.Ctx, key uint64)
	Dequeue(c *sim.Ctx) (uint64, bool)
	Peek(c *sim.Ctx) (uint64, bool)
}

func TestCASequentialFIFO(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1, Check: true})
	q := NewCA(m.Space)
	m.Spawn(func(c *sim.Ctx) {
		if _, ok := q.Dequeue(c); ok {
			t.Error("dequeue from empty queue succeeded")
		}
		for k := uint64(1); k <= 10; k++ {
			q.Enqueue(c, k)
		}
		for k := uint64(1); k <= 10; k++ {
			if got, ok := q.Dequeue(c); !ok || got != k {
				t.Errorf("dequeue = %d,%v, want %d,true", got, ok, k)
			}
		}
		if _, ok := q.Dequeue(c); ok {
			t.Error("drained queue dequeue succeeded")
		}
	})
	m.Run()
	// Immediate reclamation: only the current dummy remains live.
	if st := m.Space.Stats(); st.NodeLive() != 1 {
		t.Fatalf("live nodes = %d, want 1 (dummy)", st.NodeLive())
	}
}

func TestGuardedSequentialFIFOAllSchemes(t *testing.T) {
	for _, name := range smr.Names() {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 1, Check: true})
			r, err := smr.New(name, m.Space, 1, smr.Options{ReclaimEvery: 4, EpochEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			q := NewGuarded(m.Space, r)
			m.Spawn(func(c *sim.Ctx) {
				for round := 0; round < 5; round++ {
					for k := uint64(1); k <= 20; k++ {
						q.Enqueue(c, k)
					}
					for k := uint64(1); k <= 20; k++ {
						if got, ok := q.Dequeue(c); !ok || got != k {
							t.Errorf("round %d: dequeue = %d,%v, want %d", round, got, ok, k)
						}
					}
				}
			})
			m.Run()
		})
	}
}

// testPeekSequential drives either variant through the Peek contract:
// empty-queue misses, agreement with the next Dequeue, and no side effects
// (peeking must not consume, reorder, or allocate).
func testPeekSequential(t *testing.T, m *sim.Machine, q queueIface) {
	t.Helper()
	m.Spawn(func(c *sim.Ctx) {
		if _, ok := q.Peek(c); ok {
			t.Error("peek on empty queue succeeded")
		}
		for k := uint64(1); k <= 10; k++ {
			q.Enqueue(c, k)
		}
		for k := uint64(1); k <= 10; k++ {
			for i := 0; i < 3; i++ { // repeated peeks must not consume
				if got, ok := q.Peek(c); !ok || got != k {
					t.Errorf("peek = %d,%v, want %d,true", got, ok, k)
				}
			}
			if got, ok := q.Dequeue(c); !ok || got != k {
				t.Errorf("dequeue after peek = %d,%v, want %d,true", got, ok, k)
			}
		}
		if _, ok := q.Peek(c); ok {
			t.Error("peek on drained queue succeeded")
		}
	})
	m.Run()
}

func TestCAPeek(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1, Check: true})
	q := NewCA(m.Space)
	testPeekSequential(t, m, q)
	if st := m.Space.Stats(); st.NodeLive() != 1 {
		t.Fatalf("live nodes = %d, want 1 (dummy)", st.NodeLive())
	}
}

func TestGuardedPeekAllSchemes(t *testing.T) {
	for _, name := range smr.Names() {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 1, Check: true})
			r, err := smr.New(name, m.Space, 1, smr.Options{ReclaimEvery: 4, EpochEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			testPeekSequential(t, m, NewGuarded(m.Space, r))
		})
	}
}

// TestPeekConcurrent mixes peekers among producers/consumers under Check
// mode: peeks must only ever observe a key some producer enqueued, and the
// queue must stay conservation-correct (runMixed's own checks) with peeks
// in flight.
func TestPeekConcurrent(t *testing.T) {
	const stamp = 1 << 32
	run := func(t *testing.T, m *sim.Machine, q queueIface) {
		for i := 0; i < 4; i++ {
			m.Spawn(func(c *sim.Ctx) {
				id := c.ThreadID()
				var seq uint64
				for j := 0; j < 300; j++ {
					switch j % 3 {
					case 0:
						seq++
						q.Enqueue(c, uint64(id)*stamp+seq)
					case 1:
						q.Dequeue(c)
					default:
						if v, ok := q.Peek(c); ok && v%stamp == 0 {
							t.Errorf("peek observed impossible key %d", v)
						}
					}
				}
			})
		}
		m.Run()
	}
	t.Run("ca", func(t *testing.T) {
		m := sim.New(sim.Config{Cores: 4, Check: true})
		run(t, m, NewCA(m.Space))
	})
	for _, name := range smr.Names() {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 4, Check: true})
			r, err := smr.New(name, m.Space, 4, smr.Options{})
			if err != nil {
				t.Fatal(err)
			}
			run(t, m, NewGuarded(m.Space, r))
		})
	}
}

// runMixed checks conservation and per-producer FIFO order: each thread
// enqueues an ascending sequence stamped with its id; dequeued values from
// any single producer must come out in order.
func runMixed(t *testing.T, m *sim.Machine, q queueIface, seed uint64, threads, ops int) {
	t.Helper()
	const stamp = 1 << 32
	var dequeued [][]uint64 = make([][]uint64, threads)
	enqueued := make([]uint64, threads)
	for i := 0; i < threads; i++ {
		m.Spawn(func(c *sim.Ctx) {
			id := c.ThreadID()
			rng := sim.ThreadRNG(seed, i)
			var seq uint64
			for j := 0; j < ops; j++ {
				if rng.Intn(2) == 0 {
					seq++
					q.Enqueue(c, uint64(id)*stamp+seq)
					enqueued[id]++
				} else if v, ok := q.Dequeue(c); ok {
					dequeued[id] = append(dequeued[id], v)
				}
			}
		})
	}
	m.Run()
	// Drain the remainder.
	var rest []uint64
	m.Spawn(func(c *sim.Ctx) {
		for {
			v, ok := q.Dequeue(c)
			if !ok {
				return
			}
			rest = append(rest, v)
		}
	})
	m.Run()
	// Conservation + per-producer FIFO.
	perProducer := make(map[uint64][]uint64)
	total := 0
	for _, batch := range append(dequeued, rest) {
		total += len(batch)
		for _, v := range batch {
			perProducer[v/stamp] = append(perProducer[v/stamp], v%stamp)
		}
	}
	var wantTotal uint64
	for _, n := range enqueued {
		wantTotal += n
	}
	if uint64(total) != wantTotal {
		t.Fatalf("conservation violated: enqueued %d, dequeued %d", wantTotal, total)
	}
	for p, seqs := range perProducer {
		// A producer's items may interleave with others', but among
		// themselves must be an ascending contiguous run 1..n once sorted
		// sets aside interleaving: the multiset must be exactly {1..n}.
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("producer %d: dequeued multiset %v not contiguous", p, seqs)
			}
		}
	}
}

func TestCAConcurrent(t *testing.T) {
	m := sim.New(sim.Config{Cores: 8, Check: true})
	q := NewCA(m.Space)
	runMixed(t, m, q, 3, 8, 400)
	if st := m.Space.Stats(); st.NodeLive() != 1 {
		t.Fatalf("after drain, live nodes = %d, want 1 (dummy)", st.NodeLive())
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
			q := NewGuarded(m.Space, r)
			runMixed(t, m, q, 4, 8, 400)
		})
	}
}
