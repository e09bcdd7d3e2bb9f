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

// TestTailTrialBytes is the memory budget of one tail-recording trial on a
// warm Runner, the trial TestWarmHitAllocs stores: list/rcu, 2 threads × 40
// ops over 32 keys. It records a Tail per thread, merges them into the
// phase's Tail and that into the trial's, eight histograms each. While a
// histogram reserved all 976 buckets (7.8 KB) on first use, the trial took
// 195 KB; with bucket arrays that grow by doubling, each histogram holds
// only the buckets its samples reach, and the trial takes 36 KB. The count
// is the fewest bytes of five trials, as in TestColdTrialAllocs.
func TestTailTrialBytes(t *testing.T) {
	const budget = 40 << 10
	w := Workload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 32, UpdatePct: 50,
		OpsPerThread: 40, Seed: 1, RecordTail: true,
	}
	var r Runner
	run := func() {
		if res, err := r.Run(w); err != nil || res.Tail == nil {
			t.Fatalf("trial failed or recorded no tail: %v", err)
		}
	}
	run() // builds the Runner's machine
	bytes := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		bytes = min(bytes, ms.TotalAlloc-before)
	}
	t.Logf("tail trial: %d bytes", bytes)
	if bytes > budget {
		t.Errorf("tail trial allocates %d bytes, budget %d", bytes, budget)
	}
}
