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
