package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"condaccess/internal/obs"
)

// TestManifestAccountsWallClock is the observability acceptance test: a
// sequential sweep's manifest must account for where the wall-clock went —
// span sums bounded by elapsed time, trial counts matching the sweep
// exactly, labels matching the points — and a warm re-run over the same
// store must show simulation time collapsing to zero with the store lookup
// as the remaining cost.
func TestManifestAccountsWallClock(t *testing.T) {
	st := newMemStore()
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"},
		Threads: []int{2}, Updates: []int{100},
		KeyRange: 64, Ops: 120, Seed: 7, Trials: 2, Workers: 1,
		Store: st,
	}

	cold := obs.New(obs.Config{Tool: "test"})
	cfg.Obs = cold
	start := time.Now()
	points, err := Sweep(cfg, nil)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	m := cold.Manifest()

	wantTrials := len(cfg.Schemes) * len(cfg.Threads) * len(cfg.Updates) * cfg.Trials
	if m.TrialsPlanned != wantTrials || m.TrialsDone != wantTrials {
		t.Errorf("trials planned/done = %d/%d, want %d", m.TrialsPlanned, m.TrialsDone, wantTrials)
	}
	if m.WarmHits != 0 {
		t.Errorf("cold run WarmHits = %d, want 0", m.WarmHits)
	}
	if total := m.Total(); total <= 0 || total > int64(wall) {
		t.Errorf("span total = %v not in (0, wall=%v]", time.Duration(total), wall)
	}
	if m.SimulateNanos <= 0 {
		t.Errorf("cold run SimulateNanos = %d, want > 0", m.SimulateNanos)
	}
	if len(m.Points) != len(points) {
		t.Fatalf("%d manifest points, %d sweep points", len(m.Points), len(points))
	}
	for i, p := range points {
		mp := m.Points[i]
		want := pointLabel(cfg.DS, pointSpec{Scheme: p.Scheme, Threads: p.Threads, UpdatePct: p.UpdatePct})
		if mp.Label != want {
			t.Errorf("point %d label = %q, want %q", i, mp.Label, want)
		}
		if mp.Trials != cfg.Trials {
			t.Errorf("point %q trials = %d, want %d", mp.Label, mp.Trials, cfg.Trials)
		}
	}

	// Warm re-run: every cell hits the store, so simulation vanishes and the
	// lookup span is what remains.
	warm := obs.New(obs.Config{Tool: "test"})
	cfg.Obs = warm
	if _, err := Sweep(cfg, nil); err != nil {
		t.Fatal(err)
	}
	wm := warm.Manifest()
	if wm.WarmHits != wantTrials || wm.TrialsDone != wantTrials {
		t.Errorf("warm run hits/done = %d/%d, want all %d warm", wm.WarmHits, wm.TrialsDone, wantTrials)
	}
	if wm.SimulateNanos != 0 {
		t.Errorf("warm run SimulateNanos = %v, want 0", time.Duration(wm.SimulateNanos))
	}
	if wm.LookupNanos <= 0 {
		t.Errorf("warm run LookupNanos = %d, want > 0", wm.LookupNanos)
	}
}

// TestParallelSweepObserved checks the pool path: a parallel sweep's
// manifest carries the same trial counts and per-point rollups as the work
// it did, with spans conserved across workers.
func TestParallelSweepObserved(t *testing.T) {
	rec := obs.New(obs.Config{Tool: "test"})
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "ibr"},
		Threads: []int{1, 2}, Updates: []int{100},
		KeyRange: 64, Ops: 100, Seed: 3, Trials: 2, Workers: 4,
		Obs: rec,
	}
	points, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Manifest()
	wantTrials := len(points) * cfg.Trials
	if m.TrialsDone != wantTrials {
		t.Errorf("TrialsDone = %d, want %d", m.TrialsDone, wantTrials)
	}
	var pointTrials int
	var pointSpans, workerSpans int64
	for _, p := range m.Points {
		pointTrials += p.Trials
		pointSpans += p.Total()
	}
	for _, w := range m.Workers {
		workerSpans += w.Total()
	}
	if pointTrials != wantTrials {
		t.Errorf("sum of point trials = %d, want %d", pointTrials, wantTrials)
	}
	if pointSpans != workerSpans || workerSpans != m.Total() {
		t.Errorf("span conservation: points %d, workers %d, total %d", pointSpans, workerSpans, m.Total())
	}
}

// failingStore wraps the in-memory store with a write path that always
// fails, simulating a full or broken disk under the sweep pool.
type failingStore struct{ *memStore }

func (failingStore) StoreTrialSpec(*PreparedSpec, Result) error {
	return errors.New("disk full")
}
func (failingStore) StoreScenarioSpec(*PreparedSpec, ScenarioResult) error {
	return errors.New("disk full")
}

// checkPointPairing requires the point events of a JSONL event log to pair
// up in order: point_start for the next point, then point_done for the same
// point. It returns the number of points closed and the point left open
// (-1 for none).
func checkPointPairing(t *testing.T, events string) (closed, open int) {
	t.Helper()
	type ev struct {
		Ev    string `json:"ev"`
		Point *int   `json:"point"`
	}
	open = -1
	for _, line := range strings.Split(strings.TrimSpace(events), "\n") {
		var e ev
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("unparsable event %q: %v", line, err)
		}
		switch e.Ev {
		case "point_start":
			if open != -1 || e.Point == nil || *e.Point != closed {
				t.Fatalf("point_start out of order: got %v while open=%d next=%d", e.Point, open, closed)
			}
			open = closed
		case "point_done":
			if e.Point == nil || *e.Point != open {
				t.Fatalf("point_done %v does not match open point %d", e.Point, open)
			}
			open, closed = -1, closed+1
		}
	}
	return closed, open
}

// TestPoolErrorPathKeepsObsConsistent injects a failing TrialStore under a
// parallel sweep and checks the observability contract on the error path:
// the error propagates, point events stay strictly sequential, and Close
// still writes one complete manifest (atomic temp+rename — no residue, no
// truncation) with the run error recorded.
func TestPoolErrorPathKeepsObsConsistent(t *testing.T) {
	dir := t.TempDir()
	var events bytes.Buffer
	rec := obs.New(obs.Config{Tool: "test", ManifestDir: dir, Events: &events})
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu", "ibr"},
		Threads: []int{1, 2}, Updates: []int{100},
		KeyRange: 64, Ops: 80, Seed: 5, Trials: 1, Workers: 4,
		Store: failingStore{newMemStore()},
		Obs:   rec,
	}
	_, err := Sweep(cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Sweep error = %v, want the injected store failure", err)
	}
	if cerr := rec.Close(err); cerr != nil {
		t.Fatal(cerr)
	}

	// Events: point_start/point_done must be a strictly sequential prefix
	// even though pool workers finish out of order and the run died early.
	checkPointPairing(t, events.String())

	// Manifest: exactly one complete file, no .manifest-* temp residue, the
	// error recorded.
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".json") {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("manifest dir = %v, want exactly one .json", names)
	}
	m, merr := obs.ReadManifest(obs.ManifestPath(dir, rec.RunID()))
	if merr != nil {
		t.Fatal(merr)
	}
	if !strings.Contains(m.Error, "disk full") {
		t.Errorf("manifest Error = %q, want the injected failure", m.Error)
	}
	if m.TrialsDone >= m.TrialsPlanned {
		t.Errorf("trials done/planned = %d/%d: a failed run must fall short of plan",
			m.TrialsDone, m.TrialsPlanned)
	}
}

// TestRunManyCountsPoints pins the executor's workload-list entry point:
// one point per workload, committed in input order, with every point_done
// preceded by its point_start; on a failing store the failed point stays
// open.
func TestRunManyCountsPoints(t *testing.T) {
	var events bytes.Buffer
	rec := obs.New(obs.Config{Tool: "test", Events: &events})
	ws := []Workload{
		{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 64, UpdatePct: 100, OpsPerThread: 80, Seed: 1},
		{DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 64, UpdatePct: 100, OpsPerThread: 80, Seed: 1},
	}
	if _, err := (Exec{Workers: 2, Obs: rec}).RunMany(ws, nil, nil); err != nil {
		t.Fatal(err)
	}
	if closed, open := checkPointPairing(t, events.String()); closed != len(ws) || open != -1 {
		t.Errorf("points closed/open = %d/%d, want %d/-1", closed, open, len(ws))
	}

	var failEvents bytes.Buffer
	failRec := obs.New(obs.Config{Tool: "test", Events: &failEvents})
	if _, err := (Exec{Workers: 2, Store: failingStore{newMemStore()}, Obs: failRec}).RunMany(ws, nil, nil); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("RunMany error = %v, want the injected store failure", err)
	}
	if closed, open := checkPointPairing(t, failEvents.String()); closed != 0 || open != 0 {
		t.Errorf("failing run points closed/open = %d/%d, want 0/0", closed, open)
	}
	m := rec.Manifest()
	if m.TrialsDone != 2 || len(m.Points) != 2 {
		t.Fatalf("done=%d points=%d, want 2/2", m.TrialsDone, len(m.Points))
	}
	for i, p := range m.Points {
		if p.Trials != 1 {
			t.Errorf("point %d trials = %d, want 1", i, p.Trials)
		}
		if want := pointLabel(ws[i].DS, pointSpec{Scheme: ws[i].Scheme, Threads: ws[i].Threads, UpdatePct: ws[i].UpdatePct}); p.Label != want {
			t.Errorf("point %d label = %q, want %q", i, p.Label, want)
		}
	}
}
