package bench

import "testing"

func TestRunAllPairsSmoke(t *testing.T) {
	for _, ds := range Structures() {
		for _, scheme := range Schemes() {
			t.Run(ds+"/"+scheme, func(t *testing.T) {
				res, err := Run(Workload{
					DS: ds, Scheme: scheme,
					Threads: 4, KeyRange: 64, UpdatePct: 50,
					OpsPerThread: 200, Seed: 42, Check: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops != 800 || res.Cycles == 0 || res.Throughput <= 0 {
					t.Fatalf("implausible result: %+v", res)
				}
			})
		}
	}
}

func TestRunRejectsBadWorkloads(t *testing.T) {
	bad := []Workload{
		{DS: "list", Scheme: "ca", Threads: 0, KeyRange: 10, OpsPerThread: 1},
		{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 0, OpsPerThread: 1},
		{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 10, OpsPerThread: 0},
		{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 10, OpsPerThread: 1, UpdatePct: 150},
		{DS: "wat", Scheme: "ca", Threads: 1, KeyRange: 10, OpsPerThread: 1},
		{DS: "list", Scheme: "wat", Threads: 1, KeyRange: 10, OpsPerThread: 1},
		{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 10, OpsPerThread: 1, FootprintEvery: -1},
	}
	for i, w := range bad {
		if _, err := Run(w); err == nil {
			t.Errorf("workload %d accepted, want error", i)
		}
	}
}

func TestFootprintSampling(t *testing.T) {
	res, err := Run(Workload{
		DS: "list", Scheme: "ca",
		Threads: 2, KeyRange: 64, UpdatePct: 100,
		OpsPerThread: 500, Seed: 7, Check: true, FootprintEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Footprint) < 5 {
		t.Fatalf("footprint samples = %d, want >= 5", len(res.Footprint))
	}
	// CA keeps the footprint at the live set: every sample should be within
	// a small band around the 50% prefill size.
	for _, s := range res.Footprint {
		if s.Live > uint64(res.PrefillSize)*2 {
			t.Fatalf("CA footprint ballooned: %d live after %d ops (prefill %d)",
				s.Live, s.AfterOps, res.PrefillSize)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	w := Workload{
		DS: "bst", Scheme: "ibr",
		Threads: 4, KeyRange: 128, UpdatePct: 20,
		OpsPerThread: 300, Seed: 99, Check: true,
	}
	r1, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Retries != r2.Retries || r1.Mem != r2.Mem {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

// TestReadOnlyPhaseAllocatesNothing: at 0% updates every measured op is a
// read, which allocates, frees and retires no node, so a trial of 250 ops
// per thread ends with the allocator and reclaimer counts of a 1-op trial
// on the same prefill (the prefill's own counts, such as hmlist freeing the
// unpublished node of a duplicate insert, are in both).
func TestReadOnlyPhaseAllocatesNothing(t *testing.T) {
	for _, ds := range Structures() {
		for _, scheme := range Schemes() {
			var got [2][3]uint64
			for i, ops := range []int{1, 250} {
				w := goldenWorkload(ds, scheme)
				w.UpdatePct, w.OpsPerThread = 0, ops
				res, err := Run(w)
				if err != nil {
					t.Fatalf("%s/%s: %v", ds, scheme, err)
				}
				got[i] = [3]uint64{res.Mem.NodeAllocs, res.Mem.NodeFrees, res.SMR.Retired}
			}
			if got[0] != got[1] {
				t.Errorf("%s/%s: allocs/frees/retired %v after 1 read per thread, %v after 250", ds, scheme, got[0], got[1])
			}
		}
	}
}
