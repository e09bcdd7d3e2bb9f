package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestNilRecorderIsNoOp pins the nil-safety contract: instrumented code
// calls a nil *Rec / nil *WorkerRec unconditionally.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Rec
	if got := r.AddPoints([]string{"x"}, 1); got != 0 {
		t.Errorf("nil AddPoints = %d, want 0", got)
	}
	w := r.Worker(3)
	if w != nil {
		t.Fatalf("nil Rec Worker = %v, want nil", w)
	}
	t0 := w.Start(PhaseSimulate)
	w.End(PhaseSimulate, t0)
	w.Warm()
	w.Commit(0)
	w.Abandon()
	r.PointStart(0)
	r.PointDone(0)
	r.StoreFlushed(1, 2)
	r.SetStore(StoreRollup{})
	if err := r.Close(nil); err != nil {
		t.Errorf("nil Close = %v", err)
	}
	if id := r.RunID(); id != "" {
		t.Errorf("nil RunID = %q", id)
	}
	if m := r.Manifest(); m.RunID != "" {
		t.Errorf("nil Manifest = %+v", m)
	}
}

// TestTrialPathDoesNotAllocate pins the tentpole's zero-allocation
// invariant: with no progress or event writer configured, the per-trial
// recording path (Start, End, Warm, Commit, Abandon) performs no heap
// allocation.
func TestTrialPathDoesNotAllocate(t *testing.T) {
	r := New(Config{Tool: "test"})
	r.AddPoints([]string{"p"}, 1<<30)
	w := r.Worker(0)
	allocs := testing.AllocsPerRun(100, func() {
		t0 := w.Start(PhasePrepare)
		w.End(PhasePrepare, t0)
		t0 = w.Start(PhaseLookup)
		w.End(PhaseLookup, t0)
		w.Warm()
		t0 = w.Start(PhaseStore)
		w.End(PhaseStore, t0)
		w.Commit(0)
	})
	if allocs != 0 {
		t.Errorf("trial path allocates %.1f times per trial, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		t0 := w.Start(PhaseSimulate)
		w.End(PhaseSimulate, t0)
		w.Abandon()
	})
	if allocs != 0 {
		t.Errorf("abandon path allocates %.1f times per trial, want 0", allocs)
	}
}

// TestAggregation drives two workers across two points and checks the
// manifest rollups: per-point, per-worker, totals, and warm counting.
func TestAggregation(t *testing.T) {
	r := New(Config{Tool: "test", EngineTag: "tag123"})
	base := r.AddPoints([]string{"a", "b"}, 2)
	if base != 0 {
		t.Fatalf("first AddPoints base = %d, want 0", base)
	}
	if more := r.AddPoints([]string{"c"}, 1); more != 2 {
		t.Fatalf("second AddPoints base = %d, want 2", more)
	}

	w0, w1 := r.Worker(0), r.Worker(1)
	commit := func(w *WorkerRec, point int, warm bool) {
		t0 := w.Start(PhaseSimulate)
		time.Sleep(time.Millisecond)
		w.End(PhaseSimulate, t0)
		if warm {
			w.Warm()
		}
		w.Commit(point)
	}
	commit(w0, 0, false)
	commit(w1, 0, true)
	commit(w0, 1, true)
	commit(w1, 2, false)

	m := r.Manifest()
	if m.TrialsPlanned != 5 {
		t.Errorf("TrialsPlanned = %d, want 5 (2*2+1)", m.TrialsPlanned)
	}
	if m.TrialsDone != 4 || m.WarmHits != 2 {
		t.Errorf("TrialsDone/WarmHits = %d/%d, want 4/2", m.TrialsDone, m.WarmHits)
	}
	if len(m.Points) != 3 || len(m.Workers) != 2 {
		t.Fatalf("points/workers = %d/%d, want 3/2", len(m.Points), len(m.Workers))
	}
	if p := m.Points[0]; p.Label != "a" || p.Trials != 2 || p.Warm != 1 {
		t.Errorf("point a = %+v, want 2 trials 1 warm", p)
	}
	if p := m.Points[2]; p.Label != "c" || p.Trials != 1 || p.Warm != 0 {
		t.Errorf("point c = %+v, want 1 trial 0 warm", p)
	}
	if m.SimulateNanos < 4*int64(time.Millisecond) {
		t.Errorf("total SimulateNanos = %d, want >= 4ms", m.SimulateNanos)
	}
	var pointSum, workerSum int64
	for _, p := range m.Points {
		pointSum += p.Total()
	}
	for _, w := range m.Workers {
		workerSum += w.Total()
	}
	if pointSum != workerSum || workerSum != m.Total() {
		t.Errorf("span conservation: points %d, workers %d, total %d", pointSum, workerSum, m.Total())
	}
	if m.EngineTag != "tag123" {
		t.Errorf("EngineTag = %q", m.EngineTag)
	}
}

// TestAbandonDiscardsPartialTrial pins the error-path hygiene: spans of a
// failed trial must not leak into a reused worker's next commit.
func TestAbandonDiscardsPartialTrial(t *testing.T) {
	r := New(Config{Tool: "test"})
	r.AddPoints([]string{"p"}, 2)
	w := r.Worker(0)
	t0 := w.Start(PhaseSimulate)
	time.Sleep(time.Millisecond)
	w.End(PhaseSimulate, t0)
	w.Warm()
	w.Abandon()
	w.Commit(0) // empty trial: nothing recorded between Abandon and Commit
	m := r.Manifest()
	if m.SimulateNanos != 0 {
		t.Errorf("SimulateNanos = %d after abandon, want 0", m.SimulateNanos)
	}
	if m.WarmHits != 0 {
		t.Errorf("WarmHits = %d after abandon, want 0", m.WarmHits)
	}
	if m.TrialsDone != 1 {
		t.Errorf("TrialsDone = %d, want 1", m.TrialsDone)
	}
}

// TestEventLog drives a run with an event writer and checks the JSONL
// stream: kinds in order, sequential point events, and a run_done trailer.
func TestEventLog(t *testing.T) {
	var buf bytes.Buffer
	r := New(Config{Tool: "cabench", EngineTag: "e1", Events: &buf})
	r.AddPoints([]string{"a", "b"}, 1)
	w := r.Worker(0)
	for i := 0; i < 2; i++ {
		r.PointStart(i)
		w.Start(PhaseSimulate)
		w.Commit(i)
		r.PointDone(i)
	}
	r.StoreFlushed(3, 4096)
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	type ev struct {
		Ev     string `json:"ev"`
		Run    string `json:"run"`
		Point  *int   `json:"point"`
		Label  string `json:"label"`
		Trials int    `json:"trials"`
	}
	var evs []ev
	for _, l := range lines {
		var e ev
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("unparsable event %q: %v", l, err)
		}
		evs = append(evs, e)
	}
	var kinds []string
	for _, e := range evs {
		kinds = append(kinds, e.Ev)
	}
	want := []string{"run_start", "point_start", "trials", "point_done", "point_start", "point_done", "store_flush", "run_done"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	// point 0 must serialize explicitly (a *int field, not omitted as zero).
	if evs[1].Point == nil || *evs[1].Point != 0 || evs[1].Label != "a" {
		t.Errorf("first point_start = %+v, want point 0 label a", evs[1])
	}
	if evs[4].Point == nil || *evs[4].Point != 1 {
		t.Errorf("second point_start = %+v, want point 1", evs[4])
	}
	if evs[3].Trials != 1 {
		t.Errorf("point_done trials = %d, want 1", evs[3].Trials)
	}
	if evs[0].Run == "" || evs[0].Run != evs[len(evs)-1].Run {
		t.Errorf("run id mismatch: start %q, done %q", evs[0].Run, evs[len(evs)-1].Run)
	}
}

// TestManifestWriteIsAtomic checks Close's manifest write: the file parses,
// no temp residue is left behind, a run error is recorded, and Close is
// idempotent.
func TestManifestWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Tool: "camem", ManifestDir: dir, Spec: map[string]int{"threads": 16}})
	r.AddPoints([]string{"p"}, 1)
	w := r.Worker(0)
	w.Start(PhaseSimulate)
	w.Commit(0)
	runErr := errors.New("simulated failure")
	if err := r.Close(runErr); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(nil); err != nil { // idempotent: second close is a no-op
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("manifest dir holds %d entries, want exactly 1 (no temp residue)", len(ents))
	}
	path := filepath.Join(dir, ents[0].Name())
	if want := ManifestPath(dir, r.RunID()); path != want {
		t.Errorf("manifest at %s, want %s", path, want)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.RunID != r.RunID() || m.Tool != "camem" {
		t.Errorf("manifest identity = %q/%q", m.RunID, m.Tool)
	}
	if m.Error != "simulated failure" {
		t.Errorf("manifest Error = %q, want the run error", m.Error)
	}
	var spec map[string]int
	if err := json.Unmarshal(m.Config, &spec); err != nil || spec["threads"] != 16 {
		t.Errorf("manifest Config = %s (%v)", m.Config, err)
	}
	if m.TrialsDone != 1 {
		t.Errorf("TrialsDone = %d, want 1", m.TrialsDone)
	}
}

// TestManifestPathWinsOverDir pins the precedence: an explicit -manifest
// path beats the store-derived runs/ directory.
func TestManifestPathWinsOverDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "explicit.json")
	r := New(Config{Tool: "t", ManifestPath: path, ManifestDir: filepath.Join(dir, "runs")})
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("explicit manifest path not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs")); !os.IsNotExist(err) {
		t.Errorf("runs/ dir created despite explicit path")
	}
}

// TestListRuns checks ordering by start time and that unparsable files are
// skipped rather than failing the listing.
func TestListRuns(t *testing.T) {
	dir := t.TempDir()
	mk := func(id string, start time.Time) {
		m := Manifest{RunID: id, Tool: "t", Start: start}
		data, _ := json.Marshal(m)
		if err := os.WriteFile(ManifestPath(dir, id), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t1 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	mk("later", t1.Add(time.Hour))
	mk("earlier", t1)
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := ListRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].RunID != "earlier" || runs[1].RunID != "later" {
		var ids []string
		for _, m := range runs {
			ids = append(ids, m.RunID)
		}
		t.Fatalf("ListRuns = %v, want [earlier later]", ids)
	}
}

// TestProgressPlainMode drives the rate-limited plain (non-TTY) renderer
// with a fake clock.
func TestProgressPlainMode(t *testing.T) {
	var buf bytes.Buffer
	now := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	r := New(Config{Tool: "t", Progress: &buf, now: clock})
	r.AddPoints([]string{"a", "b"}, 1)
	w := r.Worker(0)

	now = now.Add(time.Second)
	w.Start(PhaseSimulate)
	w.Warm()
	w.Commit(0)
	now = now.Add(10 * time.Millisecond) // within the 1s plain rate limit
	w.Start(PhaseSimulate)
	w.Commit(1)
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("%d progress lines after rapid commits, want 1 (rate limited): %q", got, buf.String())
	}
	if !strings.Contains(buf.String(), "progress: 1/2 trials, 1 trials/s, eta 1s, warm 100%") {
		t.Errorf("first line = %q", buf.String())
	}

	buf.Reset()
	now = now.Add(time.Minute)
	if err := r.Close(nil); err != nil { // final render forces through
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "progress: 2/2 trials") {
		t.Errorf("final line = %q", buf.String())
	}
	if strings.Contains(buf.String(), "\r") {
		t.Errorf("plain mode used carriage returns: %q", buf.String())
	}
}

// TestProgressOffByDefault: no writer, no output machinery — the progress
// state stays untouched.
func TestProgressOffByDefault(t *testing.T) {
	r := New(Config{Tool: "t"})
	r.AddPoints([]string{"a"}, 1)
	w := r.Worker(0)
	w.Commit(0)
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}
	if r.prog.w != nil || r.events != nil {
		t.Error("writers configured without being asked")
	}
}

// TestRunIDFormat pins the sortable run id shape the runs/ directory and
// calab rely on.
func TestRunIDFormat(t *testing.T) {
	id := newRunID("cabench", time.Date(2026, 8, 8, 13, 45, 6, 123456789, time.UTC))
	if id != "20260808T134506-cabench-123456" {
		t.Errorf("newRunID = %q", id)
	}
}

// TestProgressBoundedUpdatesWarmSweep pins the rate limiter under the worst
// realistic load: a fully-warm 540-trial sweep whose trials commit every
// couple of fake milliseconds. The plain renderer must emit at least one
// update but stay bounded by elapsed time (one line per second), not by
// trial count.
func TestProgressBoundedUpdatesWarmSweep(t *testing.T) {
	var buf bytes.Buffer
	now := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	r := New(Config{Tool: "cabench", Progress: &buf, now: clock})
	const trials = 540
	r.AddPoints([]string{"sweep"}, trials)
	w := r.Worker(0)
	for i := 0; i < trials; i++ {
		now = now.Add(2 * time.Millisecond)
		w.Start(PhaseLookup)
		w.Warm()
		w.Commit(0)
	}
	got := strings.Count(buf.String(), "\n")
	// 540 trials x 2ms ≈ 1.08s of fake time: the 1s plain rate allows the
	// first line plus one refresh — far below one line per trial.
	if got == 0 || got > 5 {
		t.Fatalf("%d progress lines for %d rapid warm trials, want 1..5", got, trials)
	}
	now = now.Add(time.Second)
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}
	final := buf.String()
	if !strings.Contains(final, "progress: 540/540 trials") || !strings.Contains(final, "warm 100%") {
		t.Errorf("final render missing totals: %q", final)
	}
}
