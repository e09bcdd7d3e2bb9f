package bench

import (
	"fmt"
	"testing"

	"condaccess/internal/trace"
)

// benchTrialWorkload is the paper-default single trial for one structure ×
// scheme cell: 8 threads, 100% updates, 3000 ops/thread, the per-structure
// key ranges cabench defaults to. The bst/ca cell is the repo's headline
// single-trial benchmark (BENCH_simcore.json tracks it).
func benchTrialWorkload(ds, scheme string) Workload {
	kr := uint64(1000)
	if ds == "bst" {
		kr = 10000
	}
	return Workload{
		DS: ds, Scheme: scheme,
		Threads: 8, KeyRange: kr, UpdatePct: 100,
		OpsPerThread: 3000, Buckets: 128,
		Seed: 1,
	}
}

// BenchmarkTrial measures single-trial wall-clock time over the structure ×
// scheme matrix. One iteration is one complete trial: machine construction
// (or reuse), prefill to 50%, and the measured phase. ns/op is host time per
// simulated trial — the quantity the execution-core refactors optimize.
func BenchmarkTrial(b *testing.B) {
	for _, ds := range Structures() {
		for _, scheme := range []string{"ca", "rcu", "hp"} {
			b.Run(fmt.Sprintf("%s/%s", ds, scheme), func(b *testing.B) {
				w := benchTrialWorkload(ds, scheme)
				var r Runner // machine reuse across iterations, as in a sweep
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTrialThreads measures how a trial's host time grows with the
// simulated core count: list/{ca, rcu} at 1K keys and 100% updates, on 8, 32
// and 64 threads, with the ops split so every trial runs 24,000 in all. At
// a fixed op total, the rise in ns/op from 8 to 64 threads is what a larger
// machine costs the host: per-event bookkeeping that scales with the core
// count, plus the extra restarts and coherence misses that more threads
// simulate (castat counts those).
func BenchmarkTrialThreads(b *testing.B) {
	const totalOps = 24000
	for _, scheme := range []string{"ca", "rcu"} {
		for _, threads := range []int{8, 32, 64} {
			b.Run(fmt.Sprintf("list/%s/%dt", scheme, threads), func(b *testing.B) {
				w := benchTrialWorkload("list", scheme)
				w.Threads, w.OpsPerThread = threads, totalOps/threads
				var r Runner
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTrialTraced is BenchmarkTrial's A/B guard for the tracing and
// timeline hooks: the same headline cells with a live event sink and
// timeline recording. Comparing against BenchmarkTrial bounds what tracing
// costs when it is on; the off path's cost (a nil check per hook) is what
// keeps the two BenchmarkTrial numbers themselves stable across this
// feature's introduction.
func BenchmarkTrialTraced(b *testing.B) {
	for _, ds := range []string{"list", "bst"} {
		for _, scheme := range []string{"ca", "rcu"} {
			b.Run(fmt.Sprintf("%s/%s", ds, scheme), func(b *testing.B) {
				w := benchTrialWorkload(ds, scheme)
				w.RecordTimeline = true
				r := Runner{Trace: &trace.Sink{}}
				for i := 0; i < b.N; i++ {
					r.Trace.Reset() // bound sink growth; keeps allocations
					if _, err := r.Run(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
