package bench

import (
	"slices"
	"testing"

	"condaccess/internal/scenario"
	"condaccess/internal/trace"
)

// The engine-level cross-scheme differential suite: random scenarios
// (scenario.Random — random phases, weights, roles, distributions,
// profiles) run through the full RunScenario pipeline under every
// reclamation scheme, with the safety checker on. The op stream is drawn
// from per-thread RNGs that do not depend on the scheme, so a long list of
// quantities must agree exactly across schemes — prefill size, op counts
// per phase, and the per-kind op mix — while each scheme's own result must
// satisfy the accounting invariants (phase segments partition the trial,
// tail partitions match op counts). Any disagreement is a structure,
// reclamation, or accounting bug, caught without an oracle: the
// implementations check each other. Structure-level final-state equality is
// covered by the companion suite in internal/ds.

// diffSchemes is the full scheme matrix: conditional access plus every
// reclamation baseline.
func diffSchemes() []string { return Schemes() }

// runDifferentialScenario executes one random scenario under every scheme
// on ds and cross-checks the results. Returns the per-scheme results for
// further checks.
func runDifferentialScenario(t *testing.T, ds string, seed uint64) {
	t.Helper()
	sc := scenario.Random(seed)
	wantOps, ok := sc.TotalOpsHint()
	if !ok {
		t.Fatalf("seed %d: random scenario not ops-bounded", seed)
	}
	const threads = 3
	runner := Runner{Trace: &trace.Sink{}}
	var ref ScenarioResult
	for i, scheme := range diffSchemes() {
		runner.Trace.Reset()
		sw := ScenarioWorkload{
			DS: ds, Scheme: scheme,
			Threads: threads, KeyRange: 96,
			Seed: seed, Check: true,
			RecordLatency: true,
			Scenario:      sc,
		}
		res, err := runner.RunScenario(sw)
		if err != nil {
			t.Fatalf("seed %d %s/%s: %v", seed, ds, scheme, err)
		}

		// Per-scheme invariants: phases partition the trial exactly.
		if res.Ops != uint64(threads*wantOps) {
			t.Errorf("seed %d %s/%s: %d ops, want %d", seed, ds, scheme, res.Ops, threads*wantOps)
		}
		var sumOps, sumCycles, sumRetries uint64
		for _, seg := range res.Phases {
			sumOps += seg.Ops
			sumCycles += seg.Cycles
			sumRetries += seg.Retries
		}
		if sumOps != res.Ops {
			t.Errorf("seed %d %s/%s: phase ops sum %d != total %d", seed, ds, scheme, sumOps, res.Ops)
		}
		if sumCycles != res.Cycles {
			t.Errorf("seed %d %s/%s: phase cycles sum %d != total %d", seed, ds, scheme, sumCycles, res.Cycles)
		}
		if sumRetries != res.Retries-res.Prefill.Retries {
			t.Errorf("seed %d %s/%s: phase retries sum %d != measured total %d",
				seed, ds, scheme, sumRetries, res.Retries-res.Prefill.Retries)
		}
		lats := slices.Concat(phaseLatencies(t, runner.Trace)...)
		requireTailConsistent(t, "seed "+res.ScenarioName+" "+ds+"/"+scheme, res.Tail, res.Latency, lats, res.Ops)

		if i == 0 {
			ref = res
			continue
		}
		// Cross-scheme agreements: everything the scheme cannot legally
		// influence.
		refScheme := diffSchemes()[0]
		if res.PrefillSize != ref.PrefillSize {
			t.Errorf("seed %d %s: prefill %d under %s vs %d under %s",
				seed, ds, res.PrefillSize, scheme, ref.PrefillSize, refScheme)
		}
		if len(res.Phases) != len(ref.Phases) {
			t.Fatalf("seed %d %s: %d phases under %s vs %d under %s",
				seed, ds, len(res.Phases), scheme, len(ref.Phases), refScheme)
		}
		for pi := range res.Phases {
			if res.Phases[pi].Ops != ref.Phases[pi].Ops {
				t.Errorf("seed %d %s phase %d: %d ops under %s vs %d under %s",
					seed, ds, pi, res.Phases[pi].Ops, scheme, ref.Phases[pi].Ops, refScheme)
			}
		}
		// The op mix is drawn from scheme-independent per-thread streams:
		// the kind partition must agree exactly.
		for name, pair := range map[string][2]uint64{
			"insert": {res.Tail.Insert.Count(), ref.Tail.Insert.Count()},
			"delete": {res.Tail.Delete.Count(), ref.Tail.Delete.Count()},
			"read":   {res.Tail.Read.Count(), ref.Tail.Read.Count()},
		} {
			if pair[0] != pair[1] {
				t.Errorf("seed %d %s: %s count %d under %s vs %d under %s — op stream diverged",
					seed, ds, name, pair[0], scheme, pair[1], refScheme)
			}
		}
	}
}

// TestScenarioDifferentialQuick is the seeded quick mode the CI fuzz step
// runs: a fixed spread of random scenarios over the structures that stress
// traversal, rebalancing-free trees, and bucket dispersal.
func TestScenarioDifferentialQuick(t *testing.T) {
	for _, tc := range []struct {
		ds    string
		seeds []uint64
	}{
		{"list", []uint64{1, 2, 3, 4}},
		{"bst", []uint64{5, 6}},
		{"hash", []uint64{7, 8}},
		{"hmlist", []uint64{9, 10}},
	} {
		tc := tc
		t.Run(tc.ds, func(t *testing.T) {
			t.Parallel()
			for _, seed := range tc.seeds {
				runDifferentialScenario(t, tc.ds, seed)
			}
		})
	}
}

// FuzzScenarioDifferential lets the fuzzer drive the generator seed (and
// structure choice) beyond the quick mode's fixed spread.
func FuzzScenarioDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(42), uint8(1))
	f.Add(uint64(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, dsSel uint8) {
		ds := []string{"list", "bst", "hash", "hmlist"}[int(dsSel)%4]
		runDifferentialScenario(t, ds, seed)
	})
}
