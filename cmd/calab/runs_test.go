package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"condaccess/internal/obs"
)

func TestParseArgsRuns(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{[]string{"runs", "-store", "d"}, true},
		{[]string{"runs", "-run", "id", "-store", "d"}, true},
		{[]string{"runs", "-run", "some/path.json"}, true},
		{[]string{"runs", "-a", "x", "-b", "y"}, true},
		{[]string{"runs"}, false},            // nothing to do
		{[]string{"runs", "-a", "x"}, false}, // -a without -b
		{[]string{"runs", "-b", "y"}, false}, // -b without -a
	}
	for _, tc := range cases {
		opt, err := parseArgs(tc.args, io.Discard)
		if tc.ok && err != nil {
			t.Errorf("parseArgs(%v) = %v, want ok", tc.args, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseArgs(%v) accepted, want error", tc.args)
		}
		if tc.ok && opt.cmd != "runs" {
			t.Errorf("parseArgs(%v) cmd = %q", tc.args, opt.cmd)
		}
	}
}

func TestParseArgsVersion(t *testing.T) {
	for _, args := range [][]string{{"-version"}, {"--version"}, {"version"}} {
		opt, err := parseArgs(args, io.Discard)
		if err != nil || opt.cmd != "version" {
			t.Errorf("parseArgs(%v) = %+v, %v; want cmd version", args, opt, err)
		}
	}
	var out strings.Builder
	if code := run([]string{"version"}, &out, io.Discard); code != 0 {
		t.Fatalf("run version = %d", code)
	}
	if !strings.HasPrefix(out.String(), "calab ") || !strings.Contains(out.String(), "engine ") {
		t.Errorf("version output = %q", out.String())
	}
}

// fakeRun writes a manifest as an instrumented CLI would, returning its id.
func fakeRun(t *testing.T, storeDir, tool string, warm bool, simulate time.Duration) string {
	t.Helper()
	r := obs.New(obs.Config{Tool: tool, EngineTag: "e1", ManifestDir: obs.RunsDir(storeDir)})
	r.AddPoints([]string{"list/ca t=2 u=100"}, 1)
	w := r.Worker(0)
	if warm {
		// A warm trial never enters the simulate phase, as in Runner.Run;
		// timing an empty span could round up to a microsecond.
		w.Warm()
	} else {
		t0 := w.Start(obs.PhaseSimulate)
		time.Sleep(simulate)
		w.End(obs.PhaseSimulate, t0)
	}
	w.Commit(0)
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}
	return r.RunID()
}

// TestRunsListDeterministicOrder pins the listing order against a fixture
// directory of hand-written manifests: rows sort by start time, with a
// start-time tie broken by run id — never by the directory's filename
// enumeration, which here is arranged to disagree with both.
func TestRunsListDeterministicOrder(t *testing.T) {
	store := t.TempDir()
	dir := obs.RunsDir(store)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	mk := func(id string, start time.Time) {
		m := obs.Manifest{RunID: id, Tool: "cabench", Start: start}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obs.ManifestPath(dir, id), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Filename order (a-first, z-last) is the reverse of start order, and
	// the two tied runs' ids break their tie.
	mk("a-newest", base.Add(2*time.Hour))
	mk("m-tie-2", base.Add(time.Hour))
	mk("k-tie-1", base.Add(time.Hour))
	mk("z-oldest", base)

	render := func() string {
		var out strings.Builder
		if err := dispatch(options{cmd: "runs", store: store}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	got := render()
	var ids []string
	for i, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if i == 0 {
			continue // header
		}
		ids = append(ids, strings.Fields(line)[0])
	}
	want := []string{"z-oldest", "k-tie-1", "m-tie-2", "a-newest"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("listing order = %v, want %v:\n%s", ids, want, got)
	}
	if again := render(); again != got {
		t.Error("two listings of the same fixture dir differ")
	}
}

func TestRunsEndToEnd(t *testing.T) {
	store := t.TempDir()
	idA := fakeRun(t, store, "cabench", false, 2*time.Millisecond)
	time.Sleep(5 * time.Millisecond) // distinct run ids and ordering
	idB := fakeRun(t, store, "cabench", true, 0)

	var list strings.Builder
	if err := dispatch(options{cmd: "runs", store: store}, &list); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list.String(), idA) || !strings.Contains(list.String(), idB) {
		t.Errorf("list misses a run:\n%s", list.String())
	}
	if got := strings.Count(list.String(), "\n"); got != 3 { // header + two rows
		t.Errorf("list holds %d lines, want 3:\n%s", got, list.String())
	}

	// Inspect by id (resolved in the store) and by direct path.
	var byID, byPath strings.Builder
	if err := dispatch(options{cmd: "runs", store: store, runID: idB}, &byID); err != nil {
		t.Fatal(err)
	}
	path := obs.ManifestPath(obs.RunsDir(store), idB)
	if err := dispatch(options{cmd: "runs", runID: path}, &byPath); err != nil {
		t.Fatal(err)
	}
	if byID.String() != byPath.String() {
		t.Errorf("inspect by id and by path diverge:\n%s\nvs\n%s", byID.String(), byPath.String())
	}
	if !strings.Contains(byID.String(), "trials 1/1, 1 warm (100%)") {
		t.Errorf("inspect output:\n%s", byID.String())
	}
	if !strings.Contains(byID.String(), "simulate 0s") {
		t.Errorf("warm run's simulate span not zero:\n%s", byID.String())
	}

	var diffOut strings.Builder
	if err := dispatch(options{cmd: "runs", store: store, a: idA, b: idB}, &diffOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A = " + idA, "B = " + idB, "simulate", "wall", "B/A"} {
		if !strings.Contains(diffOut.String(), want) {
			t.Errorf("diff output misses %q:\n%s", want, diffOut.String())
		}
	}

	// An id with no -store is unresolvable and must say so.
	if err := dispatch(options{cmd: "runs", runID: "someid"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Errorf("bare run id error = %v, want a -store hint", err)
	}

	// An empty archive is a report, not an error.
	var empty strings.Builder
	if err := dispatch(options{cmd: "runs", store: t.TempDir()}, &empty); err == nil {
		t.Error("listing a store with no runs/ dir should fail (nothing recorded there)")
	} else if !strings.Contains(err.Error(), "runs") {
		t.Errorf("empty archive error = %v", err)
	}
}
