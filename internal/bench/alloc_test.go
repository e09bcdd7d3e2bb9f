//go:build !race

package bench

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// trialCost returns the fewest heap allocations and the fewest bytes of five
// runs of run, after one run that builds the Runner's machine. It measures
// the way latency's mallocs helper does, at GOMAXPROCS(1), and it turns the
// GC off for the measured runs. So no GC can empty the sync.Pool a trial's
// fmt calls draw from, and no coroutine goroutine a run frees can wait on
// another P's free list while the next run allocates a new one.
func trialCost(run func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	mallocs, bytes = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestColdTrialAllocs is the allocation budget of one simulated trial on a
// warm Runner: 8 threads × 300 ops over 1K keys at u=100. The machine and
// its caches are reused, so what remains is per-trial set-up (reclaimer,
// structure, per-thread state) and growth of per-thread buffers. A per-access
// allocation in the simulator would add thousands.
//
// trialCost measures it. Measured with the GC on and every P in use, the
// fewest of five trials once read list/ca 138 on a loaded host. The file is
// left out of -race builds: there a trial runs ten times longer and the race
// runtime drops pooled items at random. CI runs it in a step of its own.
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
		allocs, _ := trialCost(func() {
			if _, err := r.Run(w); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("list/%s: %d allocations per trial", c.scheme, allocs)
		if allocs > c.budget {
			t.Errorf("list/%s trial allocates %d times, budget %d", c.scheme, allocs, c.budget)
		}
	}
}

// TestTailTrialBytes is the memory budget of one tail-recording trial on a
// warm Runner, the trial TestWarmHitAllocs stores: list/rcu, 2 threads × 40
// ops over 32 keys. It records a Tail per thread and merges them into the
// phase's Tail, eight histograms each, which is also the trial's Tail. While
// a histogram reserved all 976 buckets (7.8 KB) on first use, the trial took
// 195 KB; with bucket arrays that grow by doubling, each histogram holds only
// the buckets its samples reach, and the trial took 36 KB. Merging the phase
// records into trial records of their own as well took 5.3 KB more; a
// one-phase trial now uses its phase's, and takes 30 KB. trialCost measures
// it.
func TestTailTrialBytes(t *testing.T) {
	const budget = 32 << 10
	w := Workload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 32, UpdatePct: 50,
		OpsPerThread: 40, Seed: 1, RecordTail: true,
	}
	var r Runner
	_, bytes := trialCost(func() {
		if res, err := r.Run(w); err != nil || res.Tail == nil {
			t.Fatalf("trial failed or recorded no tail: %v", err)
		}
	})
	t.Logf("tail trial: %d bytes", bytes)
	if bytes > budget {
		t.Errorf("tail trial allocates %d bytes, budget %d", bytes, budget)
	}
}
