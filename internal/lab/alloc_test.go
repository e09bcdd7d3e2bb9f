//go:build !race

package lab

import (
	"runtime"
	"testing"

	"condaccess/internal/bench"
)

// TestPutAllocs is the allocation budget of one put: StoreTrialSpec of the
// result TestWarmHitAllocs looks up, with its content key memoized by the
// lookup that missed, as a Runner puts it. The store's append buffer is
// first filled to its flush size, so the count is the put's own.
// Marshaling the result and then the envelope with encoding/json cost 87
// allocations and 14.7 KB. Writing the envelope in one pass into a recycled
// buffer cost 4 allocations and 3.7 KB, one of them the record frame's
// binary key. Decoding the key straight into the frame leaves 3 allocations
// and 3.7 KB: the envelope copied out at its exact size (2.8 KB), the boxed
// result and its codec. The file is left out of -race builds, whose
// sync.Pool drops recycled buffers at random; CI runs it in its
// allocation-budget step.
func TestPutAllocs(t *testing.T) {
	const (
		budget      = 3
		bytesBudget = 4 << 10
		runs        = 100
	)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := bench.Workload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 32, UpdatePct: 50,
		OpsPerThread: 40, Seed: 1, RecordTail: true,
	}
	res, err := bench.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	ps := prepared(t, w)
	if _, ok := st.LookupTrialSpec(ps); ok {
		t.Fatal("lookup in an empty store hit")
	}
	put := func() {
		if err := st.StoreTrialSpec(ps, res); err != nil {
			t.Fatal(err)
		}
	}
	for range flushRecords {
		put()
	}
	allocs := testing.AllocsPerRun(runs, put)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		put()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("put: %v allocations, %d bytes", allocs, bytes)
	if allocs > budget {
		t.Errorf("put allocates %v times, budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("put allocates %d bytes, budget %d", bytes, bytesBudget)
	}
}
