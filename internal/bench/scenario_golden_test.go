package bench

import (
	"flag"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"condaccess/internal/scenario"
)

// The scenario golden suite pins the scenario engine's observable output
// the way testdata/golden.json pins the stationary path: every preset ×
// scheme cell's full ScenarioResult — per-phase segments included — is
// fingerprinted against testdata/golden_scenario.json. Regenerate
// deliberately with:
//
//	go test ./internal/bench -run TestScenarioGoldenResults -update-scenario-golden
var updateScenarioGolden = flag.Bool("update-scenario-golden", false,
	"rewrite testdata/golden_scenario.json from the current engine")

// scenarioGoldenCells spans every preset across the three reclamation
// families, on the structures that stress them differently: the lazy list
// (long traversals) for all presets, plus the queue (Peek read path) and
// BST cells.
func scenarioGoldenCells() []ScenarioWorkload {
	var cells []ScenarioWorkload
	for _, name := range scenario.PresetNames() {
		sc, err := scenario.Preset(name)
		if err != nil {
			panic(err)
		}
		for _, scheme := range []string{"ca", "hp", "rcu"} {
			cells = append(cells, scenarioBinding("list", scheme, sc))
		}
	}
	rb, _ := scenario.Preset(scenario.PresetReadBurst)
	cd, _ := scenario.Preset(scenario.PresetChurnDrain)
	cells = append(cells,
		scenarioBinding("queue", "ca", rb),
		scenarioBinding("queue", "rcu", rb),
		scenarioBinding("bst", "ca", cd),
		scenarioBinding("bst", "rcu", cd),
	)
	return cells
}

func scenarioCellKey(sw ScenarioWorkload) string {
	return fmt.Sprintf("%s/%s/%s", sw.Scenario.Name, sw.DS, sw.Scheme)
}

// scenarioGoldenSum fingerprints every simulated field of a ScenarioResult:
// the trial's (hashResult), the scenario name, and every member of the
// prefill and phase segments but Latency, with each segment's tail and
// timeline as stored JSON.
func scenarioGoldenSum(res ScenarioResult) uint64 {
	h := fnv.New64a()
	hashResult(h, &res.Result)
	fmt.Fprintf(h, "%s\n", res.ScenarioName)
	for _, seg := range append([]PhaseSegment{res.Prefill}, res.Phases...) {
		fmt.Fprintf(h, "%s %d %d %v %d %+v %d\n",
			seg.Name, seg.Ops, seg.Cycles, seg.Throughput, seg.Retries, seg.Cache, seg.LiveNodes)
		hashRecords(h, seg.Tail, seg.Timeline)
	}
	return h.Sum64()
}

func TestScenarioGoldenResults(t *testing.T) {
	sums := map[string]string{}
	var runner Runner
	for _, sw := range scenarioGoldenCells() {
		res, err := runner.RunScenario(sw)
		if err != nil {
			t.Fatalf("%s: %v", scenarioCellKey(sw), err)
		}
		sums[scenarioCellKey(sw)] = fmt.Sprintf("%016x", scenarioGoldenSum(res))
	}

	checkGolden(t, filepath.Join("testdata", "golden_scenario.json"), sums, *updateScenarioGolden)
}

// TestScenarioGoldenRunnerReuse: a reused machine must produce the same
// scenario results as fresh ones (the sweep-pool precondition).
func TestScenarioGoldenRunnerReuse(t *testing.T) {
	sc, err := scenario.Preset(scenario.PresetChurnDrain)
	if err != nil {
		t.Fatal(err)
	}
	sw := scenarioBinding("list", "ibr", sc)
	var runner Runner
	first, err := runner.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runner.RunScenario(sw) // machine reused via Reset
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := scenarioGoldenSum(first), scenarioGoldenSum(second), scenarioGoldenSum(fresh)
	if a != b || a != c {
		t.Fatalf("runner reuse changed scenario output: %x %x %x", a, b, c)
	}
}
