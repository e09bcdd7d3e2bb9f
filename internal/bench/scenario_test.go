package bench

import (
	"fmt"
	"testing"

	"condaccess/internal/cache"
	"condaccess/internal/scenario"
)

// scenarioBinding is the canonical small binding the scenario tests run
// presets under.
func scenarioBinding(ds, scheme string, sc scenario.Scenario) ScenarioWorkload {
	return ScenarioWorkload{
		DS: ds, Scheme: scheme,
		Threads: 8, KeyRange: 256, Buckets: 32,
		Seed: 42, Check: true,
		RecordLatency: true, FootprintEvery: 500,
		Scenario: sc,
	}
}

func addCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		L1Hits:        a.L1Hits + b.L1Hits,
		L1Misses:      a.L1Misses + b.L1Misses,
		L2Hits:        a.L2Hits + b.L2Hits,
		L2Misses:      a.L2Misses + b.L2Misses,
		Invalidations: a.Invalidations + b.Invalidations,
		RemoteFwds:    a.RemoteFwds + b.RemoteFwds,
		Upgrades:      a.Upgrades + b.Upgrades,
		L1Evictions:   a.L1Evictions + b.L1Evictions,
		BackInvals:    a.BackInvals + b.BackInvals,
	}
}

// TestScenarioSegmentsSumToTotals is the phase-boundary accounting
// invariant: phases partition the measured run, so segment ops, cycle
// windows, retries, and cache-event deltas must reassemble the trial
// totals exactly (retries and cache on top of the prefill segment, whose
// activity legacy totals have always included).
func TestScenarioSegmentsSumToTotals(t *testing.T) {
	for name, sc := range scenario.Presets() {
		for _, scheme := range []string{"ca", "rcu"} {
			t.Run(name+"/"+scheme, func(t *testing.T) {
				res, err := RunScenario(scenarioBinding("list", scheme, sc))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Phases) != len(sc.Phases) {
					t.Fatalf("%d segments for %d phases", len(res.Phases), len(sc.Phases))
				}
				var ops, cycles uint64
				retries := res.Prefill.Retries
				cacheSum := res.Prefill.Cache
				for _, seg := range res.Phases {
					ops += seg.Ops
					cycles += seg.Cycles
					retries += seg.Retries
					cacheSum = addCacheStats(cacheSum, seg.Cache)
				}
				if ops != res.Ops {
					t.Errorf("segment ops sum %d != total %d", ops, res.Ops)
				}
				if cycles != res.Cycles {
					t.Errorf("segment cycle sum %d != total %d", cycles, res.Cycles)
				}
				if retries != res.Retries {
					t.Errorf("prefill+segment retries %d != total %d", retries, res.Retries)
				}
				if cacheSum != res.Cache {
					t.Errorf("prefill+segment cache deltas %+v != total %+v", cacheSum, res.Cache)
				}
				if got := addCacheStats(res.Prefill.Cache, res.MeasuredCache()); got != res.Cache {
					t.Errorf("MeasuredCache + prefill %+v != total %+v", got, res.Cache)
				}
				last := res.Phases[len(res.Phases)-1]
				if last.LiveNodes != res.Mem.NodeLive() {
					t.Errorf("last segment live %d != final live %d", last.LiveNodes, res.Mem.NodeLive())
				}
				if res.Latency.Samples != int(res.Ops) {
					t.Errorf("latency samples %d != ops %d", res.Latency.Samples, res.Ops)
				}
				for _, seg := range res.Phases {
					if seg.Latency.Samples != int(seg.Ops) {
						t.Errorf("%s: phase latency samples %d != phase ops %d", seg.Name, seg.Latency.Samples, seg.Ops)
					}
				}
			})
		}
	}
}

// TestScenarioDeterminism: the same binding must reproduce the identical
// full result, phases included.
func TestScenarioDeterminism(t *testing.T) {
	sc, err := scenario.Preset(scenario.PresetReadBurst)
	if err != nil {
		t.Fatal(err)
	}
	sw := scenarioBinding("bst", "hp", sc)
	a, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("nondeterministic scenario result:\n%+v\n%+v", a, b)
	}
}

// TestScenarioRoles: a reader-only role population must not allocate or
// free a single node after the prefill.
func TestScenarioRoles(t *testing.T) {
	sw := scenarioBinding("list", "ca", scenario.Scenario{
		Name: "readers",
		Roles: []scenario.Role{
			{Name: "reader", Count: 0, Weights: &scenario.Weights{Read: 1}},
		},
		Phases: []scenario.Phase{
			{Name: "p1", Ops: 200, Weights: scenario.Weights{Insert: 50, Delete: 50}},
			{Name: "p2", Ops: 200, Weights: scenario.Weights{Insert: 50, Delete: 50}},
		},
	})
	res, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 8*400 {
		t.Fatalf("ops = %d, want %d", res.Ops, 8*400)
	}
	// The role table overrides the write-heavy phase mix for every thread.
	for _, seg := range res.Phases {
		if seg.LiveNodes != res.Prefill.LiveNodes {
			t.Errorf("%s: readers changed the live set: %d -> %d", seg.Name, res.Prefill.LiveNodes, seg.LiveNodes)
		}
	}
	if res.Mem.NodeAllocs != res.Prefill.LiveNodes {
		t.Errorf("readers allocated: %d allocs for %d prefill nodes", res.Mem.NodeAllocs, res.Prefill.LiveNodes)
	}
}

// TestScenarioMixedRolePartition: fixed-count roles plus a catch-all split
// the population in declaration order; a wrong-sized role table is
// rejected.
func TestScenarioMixedRolePartition(t *testing.T) {
	sc, err := scenario.Preset(scenario.PresetMixedRole)
	if err != nil {
		t.Fatal(err)
	}
	sw := scenarioBinding("hash", "ibr", sc)
	if _, err := RunScenario(sw); err != nil {
		t.Fatal(err)
	}

	sw.Threads = 2 // fewer than the fixed role counts (2 writers + 1 churner)
	if _, err := RunScenario(sw); err == nil {
		t.Error("role table larger than thread count accepted")
	}

	sw.Threads = 3 // fixed counts fit, but the catch-all readers would get 0
	if _, err := RunScenario(sw); err == nil {
		t.Error("catch-all role with zero threads accepted")
	}

	noCatchAll := scenario.Scenario{
		Name:   "exact",
		Roles:  []scenario.Role{{Name: "w", Count: 3, Weights: &scenario.Weights{Insert: 1, Delete: 1}}},
		Phases: []scenario.Phase{{Name: "p", Ops: 50, Weights: scenario.Weights{Read: 1}}},
	}
	sw = scenarioBinding("list", "ca", noCatchAll)
	sw.Threads = 3
	if _, err := RunScenario(sw); err != nil {
		t.Errorf("exact role table rejected: %v", err)
	}
	sw.Threads = 4
	if _, err := RunScenario(sw); err == nil {
		t.Error("role table smaller than thread count (no catch-all) accepted")
	}
}

// TestScenarioCycleBoundedPhase: a cycle-duration phase runs each thread
// until its clock advances past the budget, and the accounting invariants
// hold without a fixed op count.
func TestScenarioCycleBoundedPhase(t *testing.T) {
	const budget = 40000
	sw := scenarioBinding("list", "ca", scenario.Scenario{
		Name: "windowed",
		Phases: []scenario.Phase{
			{Name: "warm", Ops: 100, Weights: scenario.Weights{Insert: 25, Delete: 25, Read: 50}},
			{Name: "window", Cycles: budget, Weights: scenario.Weights{Insert: 25, Delete: 25, Read: 50}},
		},
	})
	res, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	win := res.Phases[1]
	if win.Ops == 0 {
		t.Fatal("cycle-bounded phase ran no ops")
	}
	if win.Cycles < budget {
		t.Errorf("window %d cycles, budget %d", win.Cycles, budget)
	}
	// Every thread stops soon after its budget elapses, so the wall window
	// cannot be a large multiple of it.
	if win.Cycles > 3*budget {
		t.Errorf("window %d cycles for a %d budget — runaway phase", win.Cycles, budget)
	}
	if res.Ops != uint64(8*100)+win.Ops {
		t.Errorf("ops %d != warm %d + window %d", res.Ops, 8*100, win.Ops)
	}
}

// TestScenarioIntensityProfiles: lower think time must yield more ops per
// cycle. Two single-phase scenarios differing only in constant work, and a
// ramp whose second half is faster than its first.
func TestScenarioIntensityProfiles(t *testing.T) {
	one := func(p scenario.Profile) PhaseSegment {
		t.Helper()
		sw := scenarioBinding("list", "ca", scenario.Scenario{
			Name: "prof",
			Phases: []scenario.Phase{
				{Name: "p", Ops: 400, Weights: scenario.Weights{Insert: 10, Delete: 10, Read: 80}, Profile: p},
			},
		})
		res, err := RunScenario(sw)
		if err != nil {
			t.Fatal(err)
		}
		return res.Phases[0]
	}
	slow := one(scenario.Profile{Kind: scenario.ProfileConstant, Work: 200})
	fast := one(scenario.Profile{Kind: scenario.ProfileConstant, Work: 5})
	if fast.Throughput <= slow.Throughput {
		t.Errorf("think time 5 (%.1f ops/Mcyc) not faster than 200 (%.1f)", fast.Throughput, slow.Throughput)
	}

	ramp := one(scenario.Profile{Kind: scenario.ProfileRamp, From: 200, To: 5})
	if ramp.Throughput <= slow.Throughput || ramp.Throughput >= fast.Throughput {
		t.Errorf("ramp throughput %.1f not between constant endpoints %.1f and %.1f",
			ramp.Throughput, slow.Throughput, fast.Throughput)
	}

	burst := one(scenario.Profile{Kind: scenario.ProfileBurst, Period: 40, Len: 20, Work: 200, BurstWork: 5})
	if burst.Throughput <= slow.Throughput || burst.Throughput >= fast.Throughput {
		t.Errorf("burst throughput %.1f not between constant endpoints %.1f and %.1f",
			burst.Throughput, slow.Throughput, fast.Throughput)
	}

	pw := one(scenario.Profile{Kind: scenario.ProfilePiecewise, Steps: []scenario.Step{
		{Ops: 200, Work: 200}, {Ops: 200, Work: 5},
	}})
	if pw.Throughput <= slow.Throughput || pw.Throughput >= fast.Throughput {
		t.Errorf("piecewise throughput %.1f not between constant endpoints %.1f and %.1f",
			pw.Throughput, slow.Throughput, fast.Throughput)
	}
}

// TestScenarioKeyShift: a shifted phase draws keys from a rotated window —
// same count, still in [1, range].
func TestScenarioKeyShift(t *testing.T) {
	sc, err := scenario.Preset(scenario.PresetHotspotShift)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"ca", "he"} {
		res, err := RunScenario(scenarioBinding("bst", scheme, sc))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 || res.Throughput <= 0 {
			t.Fatalf("%s: implausible result %+v", scheme, res.Result)
		}
	}
}

// TestScenarioQueuePeek: a queue's read is its real Peek (no writes), so a
// read-only phase allocates nothing and cannot change the queue's length.
func TestScenarioQueuePeek(t *testing.T) {
	sw := scenarioBinding("queue", "ca", scenario.Scenario{
		Name: "peeker",
		Phases: []scenario.Phase{
			{Name: "reads", Ops: 300, Weights: scenario.Weights{Read: 1}},
		},
	})
	res, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.NodeAllocs != uint64(res.PrefillSize)+1 { // +1: the M&S dummy
		t.Errorf("peek allocated: %d allocs for prefill %d", res.Mem.NodeAllocs, res.PrefillSize)
	}
	if live := res.Mem.NodeLive(); live != uint64(res.PrefillSize)+1 {
		t.Errorf("peek changed queue length: live %d, prefill %d", live, res.PrefillSize)
	}
}

// TestScenarioRejectsBadBindings: binding-level validation mirrors the
// Workload checks and surfaces scenario/binding mismatches before any
// simulation work.
func TestScenarioRejectsBadBindings(t *testing.T) {
	sc, err := scenario.Preset(scenario.PresetRampUp)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*ScenarioWorkload){
		"threads":        func(sw *ScenarioWorkload) { sw.Threads = 0 },
		"key range":      func(sw *ScenarioWorkload) { sw.KeyRange = 0 },
		"buckets":        func(sw *ScenarioWorkload) { sw.Buckets = -1 },
		"footprint":      func(sw *ScenarioWorkload) { sw.FootprintEvery = -1 },
		"dist":           func(sw *ScenarioWorkload) { sw.Dist = "pareto" },
		"ds":             func(sw *ScenarioWorkload) { sw.DS = "wat" },
		"scheme":         func(sw *ScenarioWorkload) { sw.Scheme = "wat" },
		"phase dist":     func(sw *ScenarioWorkload) { sw.Scenario.Phases[0].Dist = "pareto" },
		"empty scenario": func(sw *ScenarioWorkload) { sw.Scenario.Phases = nil },
		"cache cores":    func(sw *ScenarioWorkload) { sw.Cache = cache.DefaultParams(4) },
	}
	for name, mutate := range mutations {
		sw := scenarioBinding("list", "ca", sc)
		mutate(&sw)
		if _, err := RunScenario(sw); err == nil {
			t.Errorf("%s: bad binding accepted", name)
		}
	}
}

// TestLoweredScenarioMatchesDirectScenario: the stationary lowering run as
// a declarative scenario reproduces Run for every structure, on ca and rcu
// (the golden suite separately pins Run itself). Run is that lowering, so
// the two paths are one trial.
func TestLoweredScenarioMatchesDirectScenario(t *testing.T) {
	for _, ds := range Structures() {
		for _, scheme := range []string{"ca", "rcu"} {
			w := goldenWorkload(ds, scheme)
			sw := ScenarioWorkload{
				DS: w.DS, Scheme: w.Scheme, Threads: w.Threads, KeyRange: w.KeyRange,
				Buckets: w.Buckets, Seed: w.Seed, FootprintEvery: w.FootprintEvery,
				RecordLatency: w.RecordLatency, Scenario: stationary(w),
			}
			want := w
			want.UpdatePct, want.OpsPerThread = 0, 0
			if sw.binding() != want {
				t.Fatalf("%s/%s: the binding %+v is not the workload's %+v", ds, scheme, sw.binding(), want)
			}
			direct, err := Run(w)
			if err != nil {
				t.Fatal(err)
			}
			declarative, err := RunScenario(sw)
			if err != nil {
				t.Fatal(err)
			}
			if goldenSum(declarative.Result) != goldenSum(direct) {
				t.Errorf("%s/%s: the lowering run as a scenario diverged from Run", ds, scheme)
			}
		}
	}
}
