//go:build !race

package bench

import (
	"runtime"
	"testing"
)

// TestColdTrialAllocs is the allocation budget of one simulated trial on a
// warm Runner: 8 threads × 300 ops over 1K keys at u=100. The machine and
// its caches are reused, so what remains is per-trial set-up (reclaimer,
// structure, per-thread state) and growth of per-thread buffers. A per-access
// allocation in the simulator would add thousands.
//
// The count is the fewest of five trials, because a trial's fmt calls draw
// from a sync.Pool that a GC empties, so an unlucky trial allocates a few
// more times. The file is left out of -race builds: there a trial runs ten
// times longer, the race runtime drops pooled items at random, and even the
// fewest of five has read one allocation high. CI runs it in a step of its
// own.
func TestColdTrialAllocs(t *testing.T) {
	for _, c := range []struct {
		scheme string
		budget uint64
	}{
		{"ca", 132},
		{"hp", 215},
		{"he", 247},
	} {
		w := Workload{
			DS: "list", Scheme: c.scheme,
			Threads: 8, KeyRange: 1000, UpdatePct: 100, OpsPerThread: 300,
			Seed: 1,
		}
		var r Runner
		run := func() {
			if _, err := r.Run(w); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds the Runner's machine
		allocs := ^uint64(0)
		var ms runtime.MemStats
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			run()
			runtime.ReadMemStats(&ms)
			allocs = min(allocs, ms.Mallocs-before)
		}
		t.Logf("list/%s: %d allocations per trial", c.scheme, allocs)
		if allocs > c.budget {
			t.Errorf("list/%s trial allocates %d times, budget %d", c.scheme, allocs, c.budget)
		}
	}
}
