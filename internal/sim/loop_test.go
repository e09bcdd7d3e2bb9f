package sim

// Event-loop invariant tests for the channel-free core: the slack-window
// bound, the live-list tie-break under swap-removal, the single-thread fast
// path, and the allocation bounds the coroutine engine promises.

import (
	"reflect"
	"testing"
)

// TestSlackWindowBound pins the scheduling discipline from inside the
// running bodies: after every charge, the running thread's clock may exceed
// the smallest clock among the other live threads by at most Slack. (At pick
// time the limit is second-smallest-clock + Slack; other clocks are frozen
// while this thread runs, and a resumed thread holds the global minimum, so
// the bound must hold at every observation point.)
func TestSlackWindowBound(t *testing.T) {
	const cores, slack = 4, 25
	m := New(Config{Cores: cores, Slack: slack})
	finished := make([]bool, cores)
	for i := 0; i < cores; i++ {
		i := i
		step := uint64(i + 1)
		steps := 400 / (i + 1)
		m.Spawn(func(c *Ctx) {
			for s := 0; s < steps; s++ {
				c.Work(step)
				own := c.Clock()
				minOther, any := ^uint64(0), false
				for j := 0; j < cores; j++ {
					if j == i || finished[j] {
						continue
					}
					any = true
					if cj := m.Clock(j); cj < minOther {
						minOther = cj
					}
				}
				if any && own > minOther+slack {
					t.Errorf("thread %d ran to clock %d with another live thread at %d (slack %d)",
						i, own, minOther, slack)
				}
			}
			finished[i] = true
		})
	}
	m.Run()
}

// refSchedule is an independent straight-line model of the event loop's
// contract for bodies of the shape "n steps of Work(w)": min-clock pick with
// ties broken by live-list order, run-until limit of second-smallest clock
// plus slack (unbounded once alone), yield after the charge that exceeds the
// limit, and swap-removal of finished threads. It returns the in-body step
// trace (thread id per step, in execution order) and the final clocks.
func refSchedule(ws []uint64, ns []int, slack uint64) ([]int, []uint64) {
	n := len(ws)
	clocks := make([]uint64, n)
	rem := append([]int(nil), ns...)
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	var trace []int
	pick := func() (int, uint64) {
		mi := 0
		min := clocks[live[0]]
		second := ^uint64(0)
		for i := 1; i < len(live); i++ {
			if c := clocks[live[i]]; c < min {
				second, min, mi = min, c, i
			} else if c < second {
				second = c
			}
		}
		if len(live) == 1 {
			return 0, ^uint64(0)
		}
		return mi, second + slack
	}
	for len(live) > 0 {
		li, limit := pick()
		id := live[li]
		finished := false
		for {
			if rem[id] == 0 {
				finished = true
				break
			}
			trace = append(trace, id)
			rem[id]--
			clocks[id] += ws[id]
			if clocks[id] > limit {
				break
			}
		}
		if finished {
			last := len(live) - 1
			live[li] = live[last]
			live = live[:last]
		}
	}
	return trace, clocks
}

// staggered returns n threads' step sizes and step counts for the
// tie-break test: threads 2k and 2k+1 share a step size, so they tie
// whenever their clocks meet, and every thread runs a different number of
// steps, so finishes are spread out and each one swap-removes.
func staggered(n int) ([]uint64, []int) {
	ws := make([]uint64, n)
	ns := make([]int, n)
	for i := range n {
		ws[i] = uint64(2 + i/2%3)
		ns[i] = 40 + 7*(i*13%n) // 13 is coprime to n: a permutation
	}
	return ws, ns
}

// TestTieBreakUnderSwapRemoval pins the pick order against the reference
// model, including the historical perturbation: removing a finished thread
// swaps the last live entry into its slot, which reorders later tie-breaks.
// In the 4-thread case threads 0 and 1 advance in lockstep (permanent ties),
// and distinct finish times exercise several swap-removals; the 32- and
// 64-thread cases do the same across a full run queue.
func TestTieBreakUnderSwapRemoval(t *testing.T) {
	ws32, ns32 := staggered(32)
	ws64, ns64 := staggered(64)
	cases := []struct {
		name string
		ws   []uint64
		ns   []int
	}{
		{"4 threads", []uint64{3, 3, 5, 2}, []int{120, 120, 70, 150}},
		{"32 threads", ws32, ns32},
		{"64 threads", ws64, ns64},
	}
	const slack = 30
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, ns := tc.ws, tc.ns
			m := New(Config{Cores: len(ws), Slack: slack})
			var trace []int
			for i := range ws {
				m.Spawn(func(c *Ctx) {
					for s := 0; s < ns[i]; s++ {
						trace = append(trace, i)
						c.Work(ws[i])
					}
				})
			}
			m.Run()

			wantTrace, wantClocks := refSchedule(ws, ns, slack)
			if !reflect.DeepEqual(trace, wantTrace) {
				for i := range wantTrace {
					if i >= len(trace) || trace[i] != wantTrace[i] {
						t.Fatalf("step %d: got thread %v, reference model says %d", i, trace[i:min(i+8, len(trace))], wantTrace[i])
					}
				}
				t.Fatalf("trace length %d, reference model has %d", len(trace), len(wantTrace))
			}
			for i, want := range wantClocks {
				if got := m.Clock(i); got != want {
					t.Errorf("core %d final clock %d, reference model says %d", i, got, want)
				}
			}
		})
	}
}

// TestSingleThreadFastPath: a lone thread runs inline on the calling
// goroutine with no coroutine materialized (resume/stop/suspend all nil) and,
// once the machine is warm, a whole spawn+run phase allocates nothing.
func TestSingleThreadFastPath(t *testing.T) {
	m := New(Config{Cores: 1})
	checked := false
	m.Spawn(func(c *Ctx) {
		if c.suspend != nil || m.threads[0].resume != nil || m.threads[0].stop != nil {
			t.Error("single-thread fast path materialized a coroutine")
		}
		// Far past any quantum: a lone thread's limit is unbounded.
		c.Work(100 * DefaultSlack)
		checked = true
	})
	m.Run()
	if !checked {
		t.Fatal("body did not run")
	}

	body := func(c *Ctx) {
		for i := 0; i < 64; i++ {
			c.Work(5)
		}
	}
	m.Spawn(body)
	m.Run() // warm the phase machinery
	if avg := testing.AllocsPerRun(100, func() {
		m.Spawn(body)
		m.Run()
	}); avg != 0 {
		t.Errorf("single-thread phase allocates %v per run after warm-up, want 0", avg)
	}
}

// TestQuantumSwitchAllocationFree bounds the per-quantum cost of the
// coroutine engine: a phase's allocation count must not depend on how many
// quantum switches it performs (the switches themselves are two coroutine
// transfers, no channels, no allocation), and the fixed per-phase overhead
// (iter.Pull coroutine per thread) stays small.
func TestQuantumSwitchAllocationFree(t *testing.T) {
	const cores = 4
	m := New(Config{Cores: cores, Slack: 20})
	phaseAllocs := func(steps int) float64 {
		body := func(c *Ctx) {
			for s := 0; s < steps; s++ {
				c.Work(3)
			}
		}
		return testing.AllocsPerRun(10, func() {
			for i := 0; i < cores; i++ {
				m.Spawn(body)
			}
			m.Run()
		})
	}
	short := phaseAllocs(50)  // a handful of quanta per thread
	long := phaseAllocs(5000) // ~100x the quantum switches
	if long > short {
		t.Errorf("allocations grow with quantum switches: %v at 50 steps, %v at 5000", short, long)
	}
	// iter.Pull costs ~12 allocations per coroutine (the coro, its closures,
	// and the pulled-value cells); pin a ceiling so the fixed overhead cannot
	// quietly grow.
	if short > 16*cores {
		t.Errorf("per-phase overhead %v allocations for %d threads, want <= %d", short, cores, 16*cores)
	}
}
