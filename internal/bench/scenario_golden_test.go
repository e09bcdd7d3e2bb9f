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

// scenarioGoldenSum fingerprints a ScenarioResult as %+v formats it,
// without the tail histograms, which postdate the pinned files (see
// goldenSum; TestTailMatchesExactOnGoldens pins them against the exact-sort
// percentiles). ScenarioResult promotes Result's String method, so %+v
// formats only the embedded Result's one-line summary, not the segments.
func scenarioGoldenSum(res ScenarioResult) uint64 {
	res.Tail = nil
	res.Timeline = nil
	res.Phases = append([]PhaseSegment(nil), res.Phases...)
	for i := range res.Phases {
		res.Phases[i].Tail = nil
		res.Phases[i].Timeline = nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
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
