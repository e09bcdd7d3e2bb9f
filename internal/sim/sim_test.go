package sim

import (
	"testing"
	"testing/quick"

	"condaccess/internal/mem"
)

func TestSingleThreadRunsToCompletion(t *testing.T) {
	m := New(Config{Cores: 1, Seed: 1})
	done := false
	m.Spawn(func(c *Ctx) {
		a := c.AllocNode()
		c.Write(a, 42)
		if c.Read(a) != 42 {
			t.Error("write/read mismatch")
		}
		done = true
	})
	m.Run()
	if !done || m.MaxClock() == 0 {
		t.Fatalf("done=%v clock=%d", done, m.MaxClock())
	}
}

func TestSchedulerInterleavesByClock(t *testing.T) {
	// Two threads increment a shared counter; the serialized simulator must
	// never lose an update even without atomics.
	m := New(Config{Cores: 2, Seed: 2, Slack: 50})
	ctr := m.Space.AllocInfra()
	for i := 0; i < 2; i++ {
		m.Spawn(func(c *Ctx) {
			for j := 0; j < 1000; j++ {
				c.FetchAdd(ctr, 1)
			}
		})
	}
	m.Run()
	if v := m.Space.Read(ctr); v != 2000 {
		t.Fatalf("counter = %d, want 2000", v)
	}
}

func TestCASSemantics(t *testing.T) {
	m := New(Config{Cores: 1, Seed: 3})
	m.Spawn(func(c *Ctx) {
		a := c.AllocNode()
		c.Write(a, 10)
		if c.CAS(a, 11, 12) {
			t.Error("CAS with wrong expected succeeded")
		}
		if !c.CAS(a, 10, 12) {
			t.Error("CAS with right expected failed")
		}
		if c.Read(a) != 12 {
			t.Error("CAS did not store")
		}
	})
	m.Run()
}

func TestClocksAdvanceIndependently(t *testing.T) {
	m := New(Config{Cores: 2, Seed: 4})
	m.Spawn(func(c *Ctx) { c.Work(100) })
	m.Spawn(func(c *Ctx) { c.Work(10000) })
	m.Run()
	if m.Clock(0) >= m.Clock(1) {
		t.Fatalf("clocks = %d, %d; thread 1 did 100x the work", m.Clock(0), m.Clock(1))
	}
	if m.MaxClock() != m.Clock(1) {
		t.Fatal("MaxClock is not the maximum")
	}
}

func TestResetClocksBetweenPhases(t *testing.T) {
	m := New(Config{Cores: 1, Seed: 5})
	m.Spawn(func(c *Ctx) { c.Work(500) })
	m.Run()
	m.ResetClocks()
	if m.MaxClock() != 0 {
		t.Fatal("clocks survived reset")
	}
	m.Spawn(func(c *Ctx) { c.Work(7) })
	m.Run()
	if m.MaxClock() != 7 {
		t.Fatalf("clock = %d, want 7", m.MaxClock())
	}
}

func TestSpawnOverCoresPanics(t *testing.T) {
	m := New(Config{Cores: 1, Seed: 6})
	m.Spawn(func(c *Ctx) {})
	defer func() {
		if recover() == nil {
			t.Fatal("overspawn accepted")
		}
	}()
	m.Spawn(func(c *Ctx) {})
}

func TestCheckModeCatchesUAF(t *testing.T) {
	m := New(Config{Cores: 1, Seed: 7, Check: true})
	var recovered any
	m.Spawn(func(c *Ctx) {
		defer func() { recovered = recover() }()
		a := c.AllocNode()
		c.Free(a)
		c.Read(a) // must panic
	})
	m.Run()
	if recovered == nil {
		t.Fatal("use-after-free not caught")
	}
}

func TestConditionalAccessThroughCtx(t *testing.T) {
	m := New(Config{Cores: 2, Seed: 8, Check: true})
	a := m.Space.AllocInfra()
	stage := make(chan struct{}, 1)
	_ = stage
	// Thread 0 tags a; thread 1 writes it; thread 0's next cread fails.
	// Coordination is via simulated memory (a flag word) since simulated
	// threads may not use Go channels.
	flag := m.Space.AllocInfra()
	m.Spawn(func(c *Ctx) {
		if _, ok := c.CRead(a); !ok {
			t.Error("initial cread failed")
		}
		c.Write(flag, 1) // signal thread 1
		for c.Read(flag) != 2 {
			c.Work(10)
		}
		if _, ok := c.CRead(a); ok {
			t.Error("cread succeeded after remote write")
		}
		c.UntagAll()
		if _, ok := c.CRead(a); !ok {
			t.Error("cread failed after untagAll")
		}
	})
	m.Spawn(func(c *Ctx) {
		for c.Read(flag) != 1 {
			c.Work(10)
		}
		c.Write(a, 99)
		c.Write(flag, 2)
	})
	m.Run()
}

func TestRNGDeterminismAndRange(t *testing.T) {
	r1 := NewRNG(42)
	r2 := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			if r.Uint64n(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zeros")
	}
}

func TestAllocFreeChargesCycles(t *testing.T) {
	m := New(Config{Cores: 1, Seed: 9})
	m.Spawn(func(c *Ctx) {
		before := c.Clock()
		a := c.AllocNode()
		c.Free(a)
		if c.Clock()-before != DefaultAllocCycles+DefaultFreeCycles {
			t.Errorf("alloc+free cost = %d", c.Clock()-before)
		}
	})
	m.Run()
}

func TestResetReproducesFreshMachine(t *testing.T) {
	workload := func(m *Machine) uint64 {
		ctr := m.Space.AllocInfra()
		for i := 0; i < 4; i++ {
			m.Spawn(func(c *Ctx) {
				rng := c.Rand()
				for j := 0; j < 300; j++ {
					switch rng.Intn(3) {
					case 0:
						a := c.AllocNode()
						c.Write(a, rng.Uint64())
						c.Free(a)
					case 1:
						c.FetchAdd(ctr, 1)
					default:
						c.Read(ctr)
					}
				}
			})
		}
		m.Run()
		return m.MaxClock() ^ m.Space.Hash()
	}
	cfg := Config{Cores: 4, Seed: 11, Slack: 100}
	fresh := workload(New(cfg))
	m := New(Config{Cores: 4, Seed: 999, Slack: 35})
	workload(m) // dirty the heap, caches, extension, clocks
	if !m.Reset(cfg) {
		t.Fatal("Reset rejected a matching geometry")
	}
	if got := workload(m); got != fresh {
		t.Fatalf("reset machine diverged: %#x != fresh %#x", got, fresh)
	}
	if m.Reset(Config{Cores: 8, Seed: 11}) {
		t.Fatal("Reset accepted a different core count")
	}
}

func TestManyThreadsDeterministic(t *testing.T) {
	run := func() uint64 {
		m := New(Config{Cores: 16, Seed: 10, Slack: 100})
		ctr := m.Space.AllocInfra()
		for i := 0; i < 16; i++ {
			m.Spawn(func(c *Ctx) {
				rng := c.Rand()
				var a mem.Addr
				for j := 0; j < 200; j++ {
					switch rng.Intn(3) {
					case 0:
						a = c.AllocNode()
						c.Write(a, rng.Uint64())
						c.Free(a)
					case 1:
						c.FetchAdd(ctr, 1)
					default:
						c.Read(ctr)
					}
				}
			})
		}
		m.Run()
		return m.MaxClock() ^ m.Space.Hash()
	}
	if run() != run() {
		t.Fatal("16-thread run is nondeterministic")
	}
}

// TestPauseBrackets: BeginPause/EndPause attribute exactly the cycles
// charged inside the outermost bracket, nest correctly, survive quantum
// handoffs (only the bracketing thread's own clock counts), and are purely
// observational.
func TestPauseBrackets(t *testing.T) {
	m := New(Config{Cores: 2, Seed: 1})
	var pauses [2]uint64
	for i := 0; i < 2; i++ {
		m.Spawn(func(c *Ctx) {
			id := c.ThreadID()
			c.Work(10)
			if got := c.PauseCycles(); got != 0 {
				t.Errorf("thread %d: pause cycles %d before any bracket", id, got)
			}
			c.BeginPause()
			c.Work(300) // crosses quantum boundaries: peers run in between
			c.BeginPause()
			c.Work(40) // nested bracket must not double-count
			c.EndPause()
			c.Work(60)
			c.EndPause()
			c.Work(5)
			pauses[id] = c.PauseCycles()
		})
	}
	m.Run()
	for id, got := range pauses {
		if got != 400 {
			t.Errorf("thread %d: pause cycles %d, want 400", id, got)
		}
	}

	// Unmatched EndPause is a bug in the bracketing code and must fail loudly.
	m2 := New(Config{Cores: 1, Seed: 1})
	m2.Spawn(func(c *Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("unmatched EndPause did not panic")
			}
		}()
		c.EndPause()
	})
	m2.Run()
}

// TestRetryCounting: CountRetry/RetryCount are thread-local — one thread's
// restarts are invisible to another's counter.
func TestRetryCounting(t *testing.T) {
	m := New(Config{Cores: 2, Seed: 1})
	var got [2]uint64
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn(func(c *Ctx) {
			for j := 0; j <= i*3; j++ {
				c.CountRetry()
				c.Work(50)
			}
			got[c.ThreadID()] = c.RetryCount()
		})
	}
	m.Run()
	if got[0] != 1 || got[1] != 4 {
		t.Fatalf("retry counts %v, want [1 4] (thread-local)", got)
	}
}

// TestMachineRetries: the machine total counts every thread's CountRetry
// across Run phases (the single-thread fast path and the event loop alike),
// survives ResetClocks, and Reset zeroes it.
func TestMachineRetries(t *testing.T) {
	cfg := Config{Cores: 2, Seed: 1}
	m := New(cfg)
	if m.Retries() != 0 {
		t.Fatalf("new machine counts %d retries", m.Retries())
	}
	m.Spawn(func(c *Ctx) { c.CountRetry(); c.CountRetry() })
	m.Run()
	if m.Retries() != 2 {
		t.Fatalf("after a one-thread phase: %d retries, want 2", m.Retries())
	}
	m.ResetClocks()
	for i := 0; i < 2; i++ {
		m.Spawn(func(c *Ctx) {
			for j := 0; j < 3; j++ {
				c.CountRetry()
				c.Work(50)
			}
		})
	}
	m.Run()
	if m.Retries() != 8 {
		t.Fatalf("after ResetClocks and a two-thread phase: %d retries, want 8", m.Retries())
	}
	if !m.Reset(cfg) {
		t.Fatal("Reset refused the machine's own config")
	}
	if m.Retries() != 0 {
		t.Fatalf("Reset left %d retries", m.Retries())
	}
}
