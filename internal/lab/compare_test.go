package lab

import (
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/cache"
	"condaccess/internal/scenario"
)

// runMatrix fills a store with Trials replicas of a tiny sweep plus one
// scenario trial, returning its cells.
func runMatrix(t *testing.T, dir string, ops int) []Cell {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = bench.Sweep(bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"}, Threads: []int{2},
		Updates: []int{100}, KeyRange: 64, Ops: ops, Seed: 5, Trials: 3,
		Store: st,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Preset("read-burst")
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	if _, err := r.RunScenario(bench.ScenarioWorkload{
		DS: "list", Scheme: "ca", Threads: 2, KeyRange: 64, Seed: 5, Scenario: sc,
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := st.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return Cells(entries)
}

// TestCellsGroupReplicas: the 3 trials of each sweep point must fold into
// one cell with replication statistics; the scenario trial is its own cell.
func TestCellsGroupReplicas(t *testing.T) {
	cells := runMatrix(t, t.TempDir(), 80)
	if len(cells) != 3 { // list/ca + list/rcu stationary, list/ca scenario
		t.Fatalf("cells = %d (%+v), want 3", len(cells), cells)
	}
	var trialCells, scenarioCells int
	for _, c := range cells {
		switch c.Key.Kind {
		case KindTrial:
			trialCells++
			if c.Stats.Count != 3 {
				t.Errorf("cell %s has %d replicas, want 3", c.Key, c.Stats.Count)
			}
			if c.Stats.CI95 <= 0 {
				t.Errorf("cell %s: no confidence interval over 3 replicas", c.Key)
			}
			if len(c.Seeds) != 3 || c.Seeds[0] >= c.Seeds[1] {
				t.Errorf("cell %s seeds not ordered: %v", c.Key, c.Seeds)
			}
		case KindScenario:
			scenarioCells++
			if c.Key.Scenario != "read-burst" {
				t.Errorf("scenario cell lost its name: %+v", c.Key)
			}
			if c.Stats.Count != 1 {
				t.Errorf("scenario cell has %d replicas, want 1", c.Stats.Count)
			}
		}
	}
	if trialCells != 2 || scenarioCells != 1 {
		t.Fatalf("cell kinds: %d trial, %d scenario; want 2/1", trialCells, scenarioCells)
	}
}

// TestCellsSeparateVariantsAndNormalizeDist: ablation points that differ
// only in cache geometry (figures' assoc grid) must form distinct cells —
// never pool as replicas — while the two spellings of the default key
// distribution ("" from figures, "uniform" from cabench) must land in one
// cell.
func TestCellsSeparateVariantsAndNormalizeDist(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	base := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 64, UpdatePct: 100, OpsPerThread: 60, Seed: 1}
	for _, assoc := range []int{2, 4} {
		w := base
		w.Cache = cache.DefaultParams(2)
		w.Cache.L1Assoc = assoc
		if _, err := r.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	we := base
	we.Seed, we.Dist = 2, "" // figures' spelling of the default distribution
	wu := base
	wu.Seed, wu.Dist = 3, bench.DistUniform // cabench's spelling
	wu.Buckets = 128                        // inert for a list; must not split the cell
	for _, w := range []bench.Workload{we, wu} {
		if _, err := r.Run(w); err != nil {
			t.Fatal(err)
		}
	}

	entries, err := st.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(entries)
	if len(cells) != 3 { // assoc=2, assoc=4, default geometry
		t.Fatalf("cells = %d (%v), want 3", len(cells), cells)
	}
	var variants, defaults int
	for _, c := range cells {
		if c.Key.Variant != "" {
			variants++
			if c.Stats.Count != 1 {
				t.Errorf("ablation cell %s pooled %d entries as replicas", c.Key, c.Stats.Count)
			}
			if !strings.Contains(c.Key.String(), "cache=") {
				t.Errorf("ablation cell label %q does not show its variant", c.Key)
			}
		} else {
			defaults++
			if c.Stats.Count != 2 {
				t.Errorf("dist spellings did not pool: cell %s has %d replicas, want 2", c.Key, c.Stats.Count)
			}
			if c.Key.Dist != bench.DistUniform {
				t.Errorf("default-dist cell key = %q, want normalized %q", c.Key.Dist, bench.DistUniform)
			}
		}
	}
	if variants != 2 || defaults != 1 {
		t.Fatalf("cell split = %d variant / %d default, want 2/1", variants, defaults)
	}
}

// TestSnapshotCellsRefusesMixedTags: a store holding entries from two
// engine versions must not silently pool them into one snapshot.
func TestSnapshotCellsRefusesMixedTags(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	res, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SnapshotCells(st); err != nil {
		t.Fatalf("single-tag store refused: %v", err)
	}
	old, err := openTagged(dir, "0000deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.StoreTrialSpec(prepared(t, w), res); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := SnapshotCells(st); err == nil || !strings.Contains(err.Error(), "mixes 2 engine versions") {
		t.Fatalf("mixed-tag store accepted (err=%v)", err)
	}
	if removed, _, err := st.GC(false); err != nil || removed != 1 {
		t.Fatalf("gc: removed %d, err %v", removed, err)
	}
	if _, err := SnapshotCells(st); err != nil {
		t.Fatalf("store still refused after gc: %v", err)
	}
}

// TestDiffAlignsAndFlagSignificance exercises the A/B report on crafted
// summaries: identical cells align, disjoint CIs flag significant, missing
// cells land in the only-one-side lists.
func TestDiffAlignsAndFlagSignificance(t *testing.T) {
	key := func(scheme string) CellKey {
		return CellKey{Kind: KindTrial, DS: "list", Scheme: scheme, Threads: 2, UpdatePct: 100, KeyRange: 64, Ops: 80}
	}
	cell := func(scheme string, xs ...float64) Cell {
		return Cell{Key: key(scheme), Throughputs: xs, Stats: bench.Summarize(xs)}
	}
	a := []Cell{cell("ca", 100, 101, 99), cell("rcu", 50, 51, 49), cell("hp", 10, 11, 9)}
	b := []Cell{cell("ca", 200, 201, 199), cell("rcu", 50.5, 51.5, 49.5), cell("he", 7, 8, 9)}

	rows, onlyA, onlyB := Diff(a, b)
	if len(rows) != 2 {
		t.Fatalf("aligned rows = %d, want 2", len(rows))
	}
	byScheme := map[string]DiffRow{}
	for _, r := range rows {
		byScheme[r.Key.Scheme] = r
	}
	ca := byScheme["ca"]
	if ca.Speedup < 1.9 || ca.Speedup > 2.1 {
		t.Errorf("ca speedup %.3f, want ~2.0", ca.Speedup)
	}
	if !ca.Significant {
		t.Error("ca: disjoint CIs not flagged significant")
	}
	if rcu := byScheme["rcu"]; rcu.Significant {
		t.Error("rcu: overlapping CIs flagged significant")
	}
	if len(onlyA) != 1 || onlyA[0].Scheme != "hp" {
		t.Errorf("onlyA = %v, want [hp]", onlyA)
	}
	if len(onlyB) != 1 || onlyB[0].Scheme != "he" {
		t.Errorf("onlyB = %v, want [he]", onlyB)
	}

	out := FormatDiff(rows, onlyA, onlyB)
	for _, want := range []string{"speedup", "sig", "*", "only in A", "only in B"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff table missing %q:\n%s", want, out)
		}
	}
}

// TestDiffAcrossStores: two separately-built stores of the same matrix must
// align on every cell (the real cross-run use), and identical inputs must
// not flag significance.
func TestDiffAcrossStores(t *testing.T) {
	a := runMatrix(t, t.TempDir(), 80)
	b := runMatrix(t, t.TempDir(), 80)
	rows, onlyA, onlyB := Diff(a, b)
	if len(onlyA) != 0 || len(onlyB) != 0 {
		t.Fatalf("same matrix left unaligned cells: %v / %v", onlyA, onlyB)
	}
	for _, r := range rows {
		if r.Speedup != 1 {
			t.Errorf("cell %s: identical runs, speedup %.3f", r.Key, r.Speedup)
		}
		if r.Significant {
			t.Errorf("cell %s: identical runs flagged significant", r.Key)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical matrices produced different cells")
	}

	out := FormatCells(a)
	for _, want := range []string{"mean", "±95", "list/ca", "sc=read-burst"} {
		if !strings.Contains(out, want) {
			t.Errorf("cell table missing %q:\n%s", want, out)
		}
	}
}
