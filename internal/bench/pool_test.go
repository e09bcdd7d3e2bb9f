package bench

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"condaccess/internal/obs"
	"condaccess/internal/scenario"
	"condaccess/internal/trace"
)

// sequentialSweep is the oracle the executor is held to: the cross product
// run trial by trial on one Runner, in sweep order, with no pool. It
// returns the merged points up to the first failing trial and that trial's
// error, wrapped as Sweep wraps it.
func sequentialSweep(cfg SweepConfig) ([]SweepPoint, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 1
	}
	var r Runner
	var points []SweepPoint
	for _, s := range expand(cfg) {
		trials := make([]Result, cfg.Trials)
		for t := range trials {
			res, err := r.Run(trialWorkload(cfg, s, t))
			if err != nil {
				return points, pointError(cfg, s, err)
			}
			trials[t] = res
		}
		points = append(points, mergePoint(s, trials))
	}
	return points, nil
}

// TestParallelSweepMatchesSequential is the determinism regression guard for
// the executor: a sweep run with any worker count must reproduce the
// sequential oracle exactly — same points (deep-equal, including the
// embedded full Results), same report order, and byte-identical CSV output.
func TestParallelSweepMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		cfg  SweepConfig
	}{
		{"list-ca-ibr", SweepConfig{
			DS: "list", Schemes: []string{"ca", "ibr"},
			Threads: []int{1, 2, 4}, Updates: []int{0, 100},
			KeyRange: 64, Ops: 120, Seed: 11, Trials: 2,
		}},
		{"bst-hp-rcu", SweepConfig{
			DS: "bst", Schemes: []string{"hp", "rcu"},
			Threads: []int{2, 4}, Updates: []int{50},
			KeyRange: 128, Ops: 120, Seed: 23, Trials: 3, RecordLatency: true,
		}},
		{"hash-none-qsbr", SweepConfig{
			DS: "hash", Schemes: []string{"none", "qsbr"},
			Threads: []int{1, 3}, Updates: []int{10},
			KeyRange: 64, Ops: 100, Buckets: 16, Seed: 5, Trials: 1, Check: true,
		}},
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seqPoints, err := sequentialSweep(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var seqCSV strings.Builder
			if err := WriteCSV(&seqCSV, tc.cfg.DS, seqPoints); err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				par := tc.cfg
				par.Workers = w
				var parOrder []SweepPoint
				parPoints, err := Sweep(par, func(p SweepPoint) { parOrder = append(parOrder, p) })
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seqPoints, parPoints) {
					t.Fatalf("workers=%d: points diverge from sequential\nseq: %+v\npar: %+v", w, seqPoints, parPoints)
				}
				if !reflect.DeepEqual(seqPoints, parOrder) {
					t.Fatalf("workers=%d: report order diverges from sequential", w)
				}
				var parCSV strings.Builder
				if err := WriteCSV(&parCSV, tc.cfg.DS, parPoints); err != nil {
					t.Fatal(err)
				}
				if seqCSV.String() != parCSV.String() {
					t.Fatalf("workers=%d: CSV output not byte-identical", w)
				}
			}
		})
	}
}

// orderStore records the canonical spec of every lookup, in order, so a
// test can see which trials a one-worker batch ran.
type orderStore struct {
	*memStore
	seen []string
}

func (o *orderStore) LookupTrialSpec(ps *PreparedSpec) (Result, bool) {
	o.seen = append(o.seen, string(ps.Spec))
	return o.memStore.LookupTrialSpec(ps)
}

func (o *orderStore) LookupScenarioSpec(ps *PreparedSpec) (ScenarioResult, bool) {
	o.seen = append(o.seen, string(ps.Spec))
	return o.memStore.LookupScenarioSpec(ps)
}

// TestParallelSweepErrorMatchesSequential checks that every worker count
// reports the sequential oracle's (first-in-sweep-order) error, after
// reporting the same prefix of good points, and that one worker runs no
// trial after the failing one.
func TestParallelSweepErrorMatchesSequential(t *testing.T) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "nosuchscheme", "rcu"},
		Threads: []int{1, 2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: 3,
	}
	seqPoints, seqErr := sequentialSweep(cfg)
	if seqErr == nil {
		t.Fatal("sequential oracle accepted a bogus scheme")
	}
	for _, w := range []int{1, 4} {
		par := cfg
		par.Workers = w
		st := &orderStore{memStore: newMemStore()}
		if w == 1 {
			par.Store = st
		}
		var reported []SweepPoint
		points, parErr := Sweep(par, func(p SweepPoint) { reported = append(reported, p) })
		if parErr == nil {
			t.Fatalf("workers=%d: sweep accepted a bogus scheme", w)
		}
		if points != nil {
			t.Fatalf("workers=%d: sweep returned points alongside error: %v", w, points)
		}
		if seqErr.Error() != parErr.Error() {
			t.Fatalf("workers=%d: errors diverge:\nseq: %v\npar: %v", w, seqErr, parErr)
		}
		if !reflect.DeepEqual(seqPoints, reported) {
			t.Fatalf("workers=%d: reported prefix diverges: seq %d points, got %d", w, len(seqPoints), len(reported))
		}
		if w == 1 {
			// The bogus scheme fails validation, before its lookup: the store
			// sees the ca trials and nothing after them.
			var want []string
			for _, th := range cfg.Threads {
				spec, err := TrialSpecBytes(trialWorkload(cfg, pointSpec{Scheme: "ca", Threads: th, UpdatePct: 50}, 0))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, string(spec))
			}
			if !reflect.DeepEqual(st.seen, want) {
				t.Fatalf("one worker looked up %d trials, want the %d before the failure", len(st.seen), len(want))
			}
		}
	}
}

// TestRunScenarios checks the executor's scenario entry point: results come
// back in input order and equal RunScenario run one spec at a time, every
// point is declared under its label and closed, and a shared Trace is
// refused. A failing spec in the middle returns its error, leaves its point
// open, and with one worker nothing runs after it.
func TestRunScenarios(t *testing.T) {
	tiny := scenario.Scenario{Name: "tiny", Phases: []scenario.Phase{
		{Name: "mix", Ops: 60, Weights: scenario.Weights{Insert: 25, Delete: 25, Read: 50}},
	}}
	var sws []ScenarioWorkload
	for _, scheme := range []string{"ca", "rcu", "hp"} {
		sws = append(sws, ScenarioWorkload{DS: "list", Scheme: scheme, Threads: 2, KeyRange: 64, Seed: 3, Scenario: tiny})
	}
	var events bytes.Buffer
	rec := obs.New(obs.Config{Tool: "test", Events: &events})
	var order []int
	got, err := Exec{Workers: 2, Obs: rec}.RunScenarios(sws, nil, func(i int, _ ScenarioResult) { order = append(order, i) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("ready order = %v, want input order", order)
	}
	for i, sw := range sws {
		want, err := RunScenario(sw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("result %d diverges from a standalone RunScenario", i)
		}
	}
	if closed, open := checkPointPairing(t, events.String()); closed != len(sws) || open != -1 {
		t.Errorf("points closed/open = %d/%d, want %d/-1", closed, open, len(sws))
	}
	for i, p := range rec.Manifest().Points {
		if want := "tiny list/" + sws[i].Scheme + " t=2"; p.Label != want || p.Trials != 1 {
			t.Errorf("point %d = %q with %d trials, want %q with 1", i, p.Label, p.Trials, want)
		}
	}

	if _, err := (Exec{Workers: 2, Trace: &trace.Sink{}}).RunScenarios(sws, nil, nil); err == nil {
		t.Error("RunScenarios accepted a trace sink shared by two workers")
	}

	mixed, err := scenario.Preset(scenario.PresetMixedRole)
	if err != nil {
		t.Fatal(err)
	}
	failing := append([]ScenarioWorkload(nil), sws...)
	failing[1].Scenario = mixed // needs 4 threads; the binding has 2
	var failEvents bytes.Buffer
	failRec := obs.New(obs.Config{Tool: "test", Events: &failEvents})
	st := &orderStore{memStore: newMemStore()}
	var reported []int
	_, err = Exec{Workers: 1, Store: st, Obs: failRec}.RunScenarios(failing, nil, func(i int, _ ScenarioResult) { reported = append(reported, i) })
	if err == nil || !strings.Contains(err.Error(), "needs at least 4 threads") {
		t.Fatalf("error = %v, want the role-table failure", err)
	}
	if !reflect.DeepEqual(reported, []int{0}) {
		t.Errorf("reported %v, want only the point before the failure", reported)
	}
	if closed, open := checkPointPairing(t, failEvents.String()); closed != 1 || open != 1 {
		t.Errorf("points closed/open = %d/%d, want 1/1", closed, open)
	}
	// The role table is checked after the lookup, so the store sees the
	// failing spec too, but nothing after it.
	var want []string
	for _, sw := range failing[:2] {
		spec, err := ScenarioSpecBytes(sw)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, string(spec))
	}
	if !reflect.DeepEqual(st.seen, want) {
		t.Errorf("one worker looked up %d scenarios, want the %d up to the failure", len(st.seen), len(want))
	}
}

// TestRunMany checks order preservation and error propagation of the
// executor's workload-list entry point.
func TestRunMany(t *testing.T) {
	ws := []Workload{
		{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1},
		{DS: "stack", Scheme: "none", Threads: 1, KeyRange: 32, UpdatePct: 100, OpsPerThread: 60, Seed: 2},
		{DS: "queue", Scheme: "ibr", Threads: 3, KeyRange: 32, UpdatePct: 100, OpsPerThread: 60, Seed: 3},
	}
	seq, err := Exec{Workers: 1}.RunMany(ws, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []Result
	par, err := Exec{Workers: len(ws)}.RunMany(ws, nil, func(i int, res Result) {
		if i != len(order) {
			t.Errorf("ready(%d) out of order after %d results", i, len(order))
		}
		order = append(order, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) || !reflect.DeepEqual(par, order) {
		t.Fatal("RunMany parallel results diverge from sequential")
	}
	for i, r := range par {
		if r.W.DS != ws[i].DS {
			t.Fatalf("result %d is for %q, want %q (order not preserved)", i, r.W.DS, ws[i].DS)
		}
		want, err := Run(ws[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("result %d diverges from a standalone Run", i)
		}
	}
	if _, err := (Exec{}).RunMany(ws, []string{"one label"}, nil); err == nil {
		t.Fatal("RunMany accepted one label for three workloads")
	}
	ws[1].DS = "nosuchds"
	if _, err := (Exec{Workers: len(ws)}).RunMany(ws, nil, nil); err == nil {
		t.Fatal("RunMany swallowed a workload error")
	}
}

func TestPoolWorkersClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ req, jobs, want int }{
		{0, 10, 1},
		{-3, 10, 1},
		{1, 10, 1},
		{max + 7, 10, min(max, 10)},
		{2, 1, 1},
		{4, 0, 0},
	} {
		if got := poolWorkers(tc.req, tc.jobs); got != tc.want {
			t.Errorf("poolWorkers(%d, %d) = %d, want %d", tc.req, tc.jobs, got, tc.want)
		}
	}
}

// BenchmarkSweep measures the wall-clock effect of the worker pool on a
// multi-point sweep (the acceptance criterion's "measurably faster").
func BenchmarkSweep(b *testing.B) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu", "hp"},
		Threads: []int{2, 4, 8}, Updates: []int{0, 100},
		KeyRange: 256, Ops: 400, Seed: 7, Trials: 2,
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(map[bool]string{true: "sequential", false: "parallel"}[w == 1], func(b *testing.B) {
			c := cfg
			c.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
