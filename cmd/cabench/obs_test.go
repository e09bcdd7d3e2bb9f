package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

func TestParseArgsObsFlags(t *testing.T) {
	opt, err := parseArgs([]string{
		"-progress", "-manifest", "m.json", "-events", "ev.jsonl",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out", "-exectrace", "trace.out",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.flags.Progress || opt.flags.Manifest != "m.json" || opt.flags.Events != "ev.jsonl" {
		t.Errorf("obs flags not parsed: %+v", opt.flags)
	}
	if opt.flags.Prof.CPUPath != "cpu.out" || opt.flags.Prof.MemPath != "mem.out" || opt.flags.Prof.TracePath != "trace.out" {
		t.Errorf("profiling flags not parsed: %+v", opt.flags.Prof)
	}

	opt, err = parseArgs([]string{"-version"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.flags.Version {
		t.Error("-version not parsed")
	}
}

func TestVersionFlagShortCircuits(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -version = %d (stderr %q)", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "cabench ") || !strings.Contains(line, "engine "+bench.EngineTag()) {
		t.Errorf("version line = %q", line)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestObsOutOfBand is the tentpole invariant in miniature: the same sweep
// run cold with every observability output enabled, plain with none, and
// warm with observability again must produce byte-identical stdout — and
// the manifests must account for the run (trial counts exact, warm run's
// simulate span zero).
func TestObsOutOfBand(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	sweepArgs := []string{
		"-ds", "list", "-schemes", "ca,rcu", "-threads", "1,2",
		"-updates", "100", "-ops", "120", "-trials", "2", "-workers", "2",
	}
	obsArgs := append([]string{}, sweepArgs...)
	obsArgs = append(obsArgs,
		"-store", storeDir, "-progress",
		"-events", filepath.Join(dir, "ev.jsonl"),
	)

	var cold, plain, warm, stderrBuf strings.Builder
	if code := run(obsArgs, &cold, &stderrBuf); code != 0 {
		t.Fatalf("cold run = %d: %s", code, stderrBuf.String())
	}
	if code := run(sweepArgs, &plain, io.Discard); code != 0 {
		t.Fatal("plain run failed")
	}
	if code := run(obsArgs, &warm, io.Discard); code != 0 {
		t.Fatal("warm run failed")
	}
	if cold.String() != plain.String() {
		t.Errorf("cold obs stdout diverges from plain:\n--- obs ---\n%s--- plain ---\n%s", cold.String(), plain.String())
	}
	if warm.String() != plain.String() {
		t.Errorf("warm obs stdout diverges from plain")
	}
	if !strings.Contains(stderrBuf.String(), "progress: ") {
		t.Errorf("no progress on stderr: %q", stderrBuf.String())
	}

	// Manifests auto-archived under <store>/runs: cold then warm.
	runs, err := obs.ListRuns(obs.RunsDir(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d manifests, want 2", len(runs))
	}
	const wantTrials = 2 * 2 * 1 * 2 // schemes * threads * updates * trials
	for i, m := range runs {
		if m.TrialsDone != wantTrials || m.TrialsPlanned != wantTrials {
			t.Errorf("run %d trials = %d/%d, want %d", i, m.TrialsDone, m.TrialsPlanned, wantTrials)
		}
		if m.Tool != "cabench" || m.EngineTag != bench.EngineTag() {
			t.Errorf("run %d identity = %s/%s", i, m.Tool, m.EngineTag)
		}
	}
	coldM, warmM := runs[0], runs[1]
	if coldM.WarmHits != 0 || coldM.SimulateNanos <= 0 {
		t.Errorf("cold manifest: warm %d, simulate %d", coldM.WarmHits, coldM.SimulateNanos)
	}
	if warmM.WarmHits != wantTrials || warmM.SimulateNanos != 0 {
		t.Errorf("warm manifest: warm %d (want %d), simulate %d (want 0)",
			warmM.WarmHits, wantTrials, warmM.SimulateNanos)
	}
	if warmM.LookupNanos <= 0 {
		t.Errorf("warm manifest lookup span = %d, want > 0", warmM.LookupNanos)
	}
	if coldM.Store == nil || coldM.Store.Flushes == 0 {
		t.Errorf("cold manifest store rollup = %+v, want flush traffic", coldM.Store)
	}

	ev, err := os.ReadFile(filepath.Join(dir, "ev.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(ev), `"ev":"run_done"`); n != 2 {
		t.Errorf("events hold %d run_done records, want 2 (file appends across runs)", n)
	}
}

// TestStoreSummaryLineWithFlushes pins the extended stderr traffic line: a
// cold run reports its flush traffic, while the warm line (zero flushes)
// keeps the exact historical format the CI greps rely on.
func TestStoreSummaryLineWithFlushes(t *testing.T) {
	got := lab.StoreStats{Hits: 0, Misses: 8, Flushes: 4, BytesWritten: 13517}.String()
	if got != "store: 0 hits, 8 misses (0% warm), 4 flushes (13.2 KiB written)" {
		t.Errorf("cold summary = %q", got)
	}
	got = lab.StoreStats{Hits: 8, Misses: 0}.String()
	if got != "store: 8 hits, 0 misses (100% warm)" {
		t.Errorf("warm summary grew a suffix: %q", got)
	}
}
