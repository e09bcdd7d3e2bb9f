package smr

import (
	"bytes"
	"encoding/json"
	"testing"

	"condaccess/internal/mem"
	"condaccess/internal/sim"
	"condaccess/internal/trace"
)

// await spins in simulated time until the flag word reaches v.
func await(c *sim.Ctx, flag mem.Addr, v uint64) {
	for c.Read(flag) != v {
		c.Work(20)
	}
}

func TestNewRejectsUnknownAndCA(t *testing.T) {
	s := mem.NewSpace()
	for _, name := range []string{"ca", "bogus", ""} {
		if _, err := New(name, s, 1, Options{}); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
	}
	for _, name := range Names() {
		r, err := New(name, s, 2, Options{})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
		} else if r.Name() != name {
			t.Errorf("Name() = %q, want %q", r.Name(), name)
		}
	}
}

func TestNoneNeverFrees(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1, Check: true})
	r, _ := New("none", m.Space, 1, Options{ReclaimEvery: 1})
	m.Spawn(func(c *sim.Ctx) {
		for i := 0; i < 100; i++ {
			n := r.Alloc(c)
			c.Write(n, 1)
			r.Retire(c, n)
		}
	})
	m.Run()
	if st := m.Space.Stats(); st.NodeFrees != 0 || st.NodeLive() != 100 {
		t.Fatalf("none freed nodes: %+v", st)
	}
}

// TestReaderBlocksReclamation: for every real scheme, a node retired while a
// reader protects it must survive until the reader finishes, then be freed
// by a later scan.
func TestReaderBlocksReclamation(t *testing.T) {
	for _, name := range []string{"rcu", "qsbr", "ibr", "hp", "he"} {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 2, Check: true})
			r, err := New(name, m.Space, 2, Options{ReclaimEvery: 1, EpochEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			flag := m.Space.AllocInfra()
			target := m.Space.AllocNode() // the node under contention
			ptrCell := m.Space.AllocInfra()
			m.Space.Write(ptrCell, target)
			m.Space.Write(target+BirthEraOff, 1) // plausible birth for era schemes

			var duringFrees, afterFrees uint64
			// Reader (thread 0): protect target, hold, release.
			m.Spawn(func(c *sim.Ctx) {
				r.BeginOp(c)
				if !r.Protect(c, 0, target, ptrCell) {
					t.Error("protect failed")
				}
				c.Write(flag, 1)
				await(c, flag, 2)
				r.EndOp(c)
				// qsbr announces at op boundaries: run one more no-op cycle
				// so the reservation moves past the retire epoch.
				r.BeginOp(c)
				r.EndOp(c)
				c.Write(flag, 3)
			})
			// Reclaimer (thread 1): retire target during protection. Its own
			// retires run inside proper op brackets so its reservation (and,
			// for qsbr, its quiescent announcements) do not block the world.
			churn := func(c *sim.Ctx, rounds int) {
				for i := 0; i < rounds; i++ {
					r.BeginOp(c)
					n := r.Alloc(c)
					c.Write(n, 1)
					r.Retire(c, n)
					r.EndOp(c)
				}
			}
			m.Spawn(func(c *sim.Ctx) {
				await(c, flag, 1)
				r.BeginOp(c)
				c.Write(target, 0xAA) // writer's store before retiring
				r.Retire(c, target)   // scan runs (ReclaimEvery=1)
				r.EndOp(c)
				churn(c, 5) // target must survive the churn
				duringFrees = m.Space.Stats().NodeFrees
				if !m.Space.Live(target) {
					t.Error("protected node was freed")
				}
				c.Write(flag, 2)
				await(c, flag, 3)
				// Reader done: more churn must eventually free target.
				for i := 0; i < 10 && m.Space.Live(target); i++ {
					churn(c, 1)
				}
				afterFrees = m.Space.Stats().NodeFrees
				if m.Space.Live(target) {
					t.Error("node never freed after protection ended")
				}
			})
			m.Run()
			if afterFrees <= duringFrees {
				t.Fatalf("no additional frees after release (%d -> %d)", duringFrees, afterFrees)
			}
		})
	}
}

// TestDelayedProtectRejectsFreedNode: a reader that loads a pointer and is
// delayed before it protects the node must not be told the node is safe
// once a writer has unlinked, retired and freed it. The node is born after
// the reader's reservation was published, so only Protect's re-read of the
// link can catch it: ibr once skipped that re-read whenever the era had
// moved, and the reader then read a freed line.
func TestDelayedProtectRejectsFreedNode(t *testing.T) {
	for _, name := range []string{"ibr", "hp", "he"} {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 2, Check: true})
			r, err := New(name, m.Space, 2, Options{ReclaimEvery: 1, EpochEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			flag := m.Space.AllocInfra()
			cell := m.Space.AllocInfra() // the link the node hangs from
			var node mem.Addr
			m.Spawn(func(c *sim.Ctx) {
				r.BeginOp(c)
				c.Write(flag, 1)
				await(c, flag, 2)
				n := c.Read(cell)
				c.Write(flag, 3)
				await(c, flag, 4) // delayed between the load and Protect
				if r.Protect(c, 0, n, cell) {
					if !m.Space.Live(n) {
						t.Errorf("Protect accepted node %#x after it was freed", n)
					} else {
						c.Read(n)
					}
				}
				r.EndOp(c)
			})
			m.Spawn(func(c *sim.Ctx) {
				await(c, flag, 1)
				r.Alloc(c) // advance the era past the reader's reservation
				node = r.Alloc(c)
				c.Write(node, 1)
				c.Write(cell, node)
				c.Write(flag, 2)
				await(c, flag, 3)
				r.BeginOp(c)
				c.Write(cell, 0)
				r.Retire(c, node)
				r.EndOp(c)
				for i := 0; i < 10 && m.Space.Live(node); i++ {
					r.BeginOp(c)
					n := r.Alloc(c)
					c.Write(n, 1)
					r.Retire(c, n)
					r.EndOp(c)
				}
				if m.Space.Live(node) {
					t.Error("the unlinked node was never freed")
				}
				c.Write(flag, 4)
			})
			m.Run()
		})
	}
}

// TestQSBRStalledThreadBlocksAll reproduces the paper's qsbr/rcu weakness:
// one thread that never again passes a quiescent state keeps every retired
// node unreclaimed, growing the footprint without bound.
func TestQSBRStalledThreadBlocksAll(t *testing.T) {
	m := sim.New(sim.Config{Cores: 2, Check: true})
	r, _ := New("qsbr", m.Space, 2, Options{ReclaimEvery: 1, EpochEvery: 1})
	flag := m.Space.AllocInfra()
	m.Spawn(func(c *sim.Ctx) {
		r.BeginOp(c)
		r.EndOp(c) // announce once...
		c.Write(flag, 1)
		await(c, flag, 2) // ...then stall forever (no more quiescent states)
	})
	m.Spawn(func(c *sim.Ctx) {
		await(c, flag, 1)
		for i := 0; i < 100; i++ {
			n := r.Alloc(c)
			c.Write(n, 1)
			r.Retire(c, n)
		}
		if fr := m.Space.Stats().NodeFrees; fr != 0 {
			t.Errorf("stalled qsbr thread should block all frees, got %d", fr)
		}
		c.Write(flag, 2)
	})
	m.Run()
	if r.Stats().MaxBacklog < 90 {
		t.Fatalf("backlog = %d, want ~100", r.Stats().MaxBacklog)
	}
}

// TestHPBoundsBacklog: hazard pointers free everything not literally
// pointed at, so the backlog stays at the reclaim threshold even with a
// reader parked on one node.
func TestHPBoundsBacklog(t *testing.T) {
	m := sim.New(sim.Config{Cores: 2, Check: true})
	r, _ := New("hp", m.Space, 2, Options{ReclaimEvery: 10})
	flag := m.Space.AllocInfra()
	parked := m.Space.AllocNode()
	m.Spawn(func(c *sim.Ctx) {
		r.BeginOp(c)
		r.Protect(c, 0, parked, 0)
		c.Write(flag, 1)
		await(c, flag, 2)
		r.EndOp(c)
	})
	m.Spawn(func(c *sim.Ctx) {
		await(c, flag, 1)
		c.Write(parked, 1)
		r.Retire(c, parked)
		for i := 0; i < 200; i++ {
			n := r.Alloc(c)
			c.Write(n, 1)
			r.Retire(c, n)
		}
		c.Write(flag, 2)
	})
	m.Run()
	if m.Space.Live(parked) != true {
		t.Fatal("hazard-protected node freed")
	}
	// Live = parked + backlog below threshold (+1 for timing slop).
	if live := m.Space.Stats().NodeLive(); live > 12 {
		t.Fatalf("hp live backlog = %d, want <= 12", live)
	}
}

func TestEraSchemesStampBirth(t *testing.T) {
	for _, name := range []string{"ibr", "he"} {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 1, Check: true})
			r, _ := New(name, m.Space, 1, Options{EpochEvery: 2})
			m.Spawn(func(c *sim.Ctx) {
				var lastBirth uint64
				for i := 0; i < 10; i++ {
					n := r.Alloc(c)
					b := c.Read(n + BirthEraOff)
					if b == 0 {
						t.Errorf("alloc %d: birth era not stamped", i)
					}
					if b < lastBirth {
						t.Errorf("birth eras went backwards: %d after %d", b, lastBirth)
					}
					lastBirth = b
					c.Write(n, 1)
					r.Retire(c, n)
				}
				if lastBirth < 3 {
					t.Errorf("era never advanced (EpochEvery=2, 10 allocs): last birth %d", lastBirth)
				}
			})
			m.Run()
		})
	}
}

// TestSchemeStatsAccumulate pins the counters every batching scheme keeps:
// 20 rounds of BeginOp/Alloc/Retire/EndOp on one thread, with the epoch
// advancing fast enough that the epoch- and era-based schemes can free.
func TestSchemeStatsAccumulate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		freed uint64
	}{{"rcu", 17}, {"qsbr", 17}, {"ibr", 18}, {"hp", 20}, {"he", 20}} {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 1, Check: true})
			r, _ := New(tc.name, m.Space, 1, Options{ReclaimEvery: 5, EpochEvery: 2})
			m.Spawn(func(c *sim.Ctx) {
				for i := 0; i < 20; i++ {
					r.BeginOp(c)
					n := r.Alloc(c)
					c.Write(n, 1)
					r.Retire(c, n)
					r.EndOp(c)
				}
			})
			m.Run()
			st, sp := r.Stats(), m.Space.Stats()
			if st.Retired != 20 || st.Scans == 0 || st.Freed != tc.freed {
				t.Fatalf("stats = %+v, want 20 retired, some scans, %d freed", st, tc.freed)
			}
			if st.Freed != sp.NodeFrees {
				t.Errorf("Freed = %d, space freed %d nodes", st.Freed, sp.NodeFrees)
			}
			backlog := st.Retired - st.Freed
			if backlog != sp.NodeLive() {
				t.Errorf("Retired-Freed = %d, space holds %d live nodes", backlog, sp.NodeLive())
			}
			if uint64(st.MaxBacklog) < backlog {
				t.Errorf("MaxBacklog = %d, below the final backlog %d", st.MaxBacklog, backlog)
			}
		})
	}
}

// TestScanTraceCountsOwnFrees: each traced scan reports the nodes that scan
// freed, so the traced counts sum to Stats().Freed even when the scans of
// several threads interleave (a scan's frees can end its quantum).
func TestScanTraceCountsOwnFrees(t *testing.T) {
	for _, name := range []string{"rcu", "qsbr", "ibr", "hp", "he"} {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 4, Check: true})
			sink := &trace.Sink{}
			m.SetTrace(sink)
			r, _ := New(name, m.Space, 4, Options{ReclaimEvery: 30, EpochEvery: 10})
			for range 4 {
				m.Spawn(func(c *sim.Ctx) {
					for i := 0; i < 300; i++ {
						r.BeginOp(c)
						n := r.Alloc(c)
						c.Write(n, 1)
						r.Retire(c, n)
						r.EndOp(c)
					}
				})
			}
			m.Run()
			var buf bytes.Buffer
			if err := sink.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string
					Args struct{ Freed uint64 }
				}
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			var scans, freed uint64
			for _, e := range doc.TraceEvents {
				if e.Name == "scan" {
					scans++
					freed += e.Args.Freed
				}
			}
			if st := r.Stats(); scans != st.Scans || freed != st.Freed || freed == 0 {
				t.Fatalf("trace: %d scans freeing %d nodes; stats: %d scans freeing %d", scans, freed, st.Scans, st.Freed)
			}
		})
	}
}

func TestValidatingFlags(t *testing.T) {
	s := mem.NewSpace()
	want := map[string]bool{"none": false, "rcu": false, "qsbr": false, "ibr": false, "hp": true, "he": true}
	for name, v := range want {
		r, _ := New(name, s, 1, Options{})
		if r.Validating() != v {
			t.Errorf("%s.Validating() = %v, want %v", name, !v, v)
		}
	}
}
