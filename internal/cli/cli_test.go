package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

// tiny is the one trial the stub tool puts into its store.
var tiny = bench.Workload{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 16, UpdatePct: 50, OpsPerThread: 20, Seed: 1}

// stub is a command built on the scaffold the way every cmd/ tool is:
// -bad rejects the command line, -put runs one trial through the store,
// -csv writes a two-line file, -fail makes the body return an error after
// all of that.
func stub(args []string, stdout, stderr io.Writer) int {
	fs := NewFlagSet("stub", stderr)
	var fl Flags
	fl.Register(fs)
	bad := fs.Bool("bad", false, "reject the command line")
	put := fs.Bool("put", false, "run one trial through the store")
	store := fs.String("store", "", "result store directory")
	csvPath := fs.String("csv", "", "write a CSV here")
	fail := fs.String("fail", "", "fail the body with this error")
	err := Parse(fs, args)
	if err == nil && *bad {
		err = errors.New("bad command line")
	}
	return Run("stub", args, stdout, stderr, err, Spec{
		Flags:    fl,
		StoreDir: *store,
		Body: func(rec *obs.Rec) error {
			return WithStore(*store, rec, stderr, func(st bench.TrialStore) (err error) {
				if *put {
					if _, err := (&bench.Runner{Store: st}).Run(tiny); err != nil {
						return err
					}
				}
				if *csvPath != "" {
					f, ferr := Create(*csvPath)
					if ferr != nil {
						return ferr
					}
					defer Close(f, &err)
					fmt.Fprintln(f, "a,b")
					fmt.Fprintln(f, "1,2")
				}
				fmt.Fprintln(stdout, "ran")
				if *fail != "" {
					return errors.New(*fail)
				}
				return nil
			})
		},
	})
}

// TestRunContract drives the stub through every exit path: the exit code,
// stdout, and stderr, which on failure is exactly one line (or only the
// flag package's own report).
func TestRunContract(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plainfile")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	badManifest := filepath.Join(plain, "m.json") // its directory is a file
	missing := filepath.Join(dir, "missing")      // a directory never created
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // exact
		stderr string // exact, or a prefix when it ends in "..."
		dev    string // skip unless this device exists
	}{
		{"help", []string{"-h"}, 0, "", "Usage of stub:...", ""},
		{"bad flag printed once", []string{"-nosuch"}, 2, "", "flag provided but not defined: -nosuch\nUsage of stub:...", ""},
		{"command-line error", []string{"-bad"}, 2, "", "stub: bad command line\n", ""},
		{"version", []string{"-version"}, 0, VersionLine("stub", bench.EngineTag()) + "\n", "", ""},
		{"success", nil, 0, "ran\n", "", ""},
		{"runtime error", []string{"-fail", "boom"}, 1, "ran\n", "stub: boom\n", ""},
		{"unopenable store", []string{"-store", filepath.Join(plain, "store")}, 1, "", "stub: ...", ""},
		{"stats line on success", []string{"-store", filepath.Join(dir, "s1"), "-put"}, 0, "ran\n", "store: 0 hits, 1 misses (0% warm), 1 flushes...", ""},
		{"no stats line on failure", []string{"-store", filepath.Join(dir, "s2"), "-put", "-fail", "boom"}, 1, "ran\n", "stub: boom\n", ""},
		{"teardown error surfaces on success", []string{"-manifest", badManifest}, 1, "ran\n", "stub: obs: ...", ""},
		{"body error wins over teardown", []string{"-manifest", badManifest, "-fail", "boom"}, 1, "ran\n", "stub: boom\n", ""},
		{"csv on a full device", []string{"-csv", "/dev/full"}, 1, "ran\n", "stub: write /dev/full: no space left on device\n", "/dev/full"},
		{"events on a full device", []string{"-events", "/dev/full"}, 1, "ran\n", "stub: write /dev/full: no space left on device\n", "/dev/full"},
		{"events in a missing directory", []string{"-events", filepath.Join(missing, "ev.jsonl")}, 1, "", "stub: ...", ""},
		{"cpu profile in a missing directory", []string{"-cpuprofile", filepath.Join(missing, "cpu")}, 1, "", "stub: obs: open ...", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.dev != "" {
				if _, err := os.Stat(tc.dev); err != nil {
					t.Skipf("%s: %v", tc.dev, err)
				}
			}
			var stdout, stderr strings.Builder
			if code := stub(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout = %q, want %q", stdout.String(), tc.stdout)
			}
			got := stderr.String()
			if prefix, ok := strings.CutSuffix(tc.stderr, "..."); ok {
				if !strings.HasPrefix(got, prefix) {
					t.Errorf("stderr = %q, want prefix %q", got, prefix)
				}
				if strings.HasPrefix(prefix, "stub: ") || strings.HasPrefix(prefix, "store: ") {
					if strings.Count(got, "\n") != 1 {
						t.Errorf("stderr is not one line: %q", got)
					}
				} else if strings.Contains(got, "stub: ") {
					t.Errorf("flag-package error printed a second time: %q", got)
				}
			} else if got != tc.stderr {
				t.Errorf("stderr = %q, want %q", got, tc.stderr)
			}
		})
	}
}

// TestFailedBodyKeepsCompletedPuts: the store's Close runs when the body
// fails, so the trial the body completed is durable and a re-run is warm.
func TestFailedBodyKeepsCompletedPuts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if code := stub([]string{"-store", dir, "-put", "-fail", "boom"}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	st, err := lab.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := (&bench.Runner{Store: st}).Run(tiny); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("re-run store traffic = %+v, want one hit: the failed run lost its put", s)
	}
}

// TestWithStoreWithoutDirIsUntypedNil: with no store directory the body
// gets an untyped nil TrialStore; a typed nil *lab.Store would read as a
// store to the runner.
func TestWithStoreWithoutDirIsUntypedNil(t *testing.T) {
	err := WithStore("", nil, io.Discard, func(st bench.TrialStore) error {
		if st != nil {
			return fmt.Errorf("store = %#v, want untyped nil", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type closer struct{ err error }

func (c closer) Close() error { return c.err }

// TestCloseKeepsFirstError: Close takes the closer's error only when no
// earlier error is held.
func TestCloseKeepsFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	for _, tc := range []struct {
		held, closeErr, want error
	}{
		{nil, nil, nil},
		{nil, second, second},
		{first, nil, first},
		{first, second, first},
	} {
		err := tc.held
		Close(closer{tc.closeErr}, &err)
		if err != tc.want {
			t.Errorf("held %v, close %v: got %v, want %v", tc.held, tc.closeErr, err, tc.want)
		}
	}
}

func TestVersionLine(t *testing.T) {
	line := VersionLine("cabench", "abc123")
	if !strings.HasPrefix(line, "cabench ") || !strings.HasSuffix(line, "engine abc123") {
		t.Errorf("VersionLine = %q", line)
	}
}

// TestProfiler exercises the shared -cpuprofile/-memprofile/-exectrace
// plumbing end to end: all three files exist and are non-empty after Stop.
func TestProfiler(t *testing.T) {
	dir := t.TempDir()
	p := Profiler{
		CPUPath:   filepath.Join(dir, "cpu.pprof"),
		MemPath:   filepath.Join(dir, "mem.pprof"),
		TracePath: filepath.Join(dir, "trace.out"),
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1000; i++ {
		sink += i
	}
	_ = sink
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPUPath, p.MemPath, p.TracePath} {
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	if err := p.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// runBody runs body as tool "t" under Run with the given flags and manifest
// fields, returning the exit code and stderr.
func runBody(spec Spec, body func(rec *obs.Rec) error) (int, string) {
	var stderr strings.Builder
	spec.Body = body
	return Run("t", nil, io.Discard, &stderr, nil, spec), stderr.String()
}

// TestSessionEventsFlushedOnError pins the -events teardown contract: the
// buffered JSONL writer is flushed and the file closed on the failure path
// too, so a run that errors out (stores failing, trials abandoned) still
// leaves a complete event log ending in the run_done trailer that carries
// the error.
func TestSessionEventsFlushedOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	code, stderr := runBody(Spec{Flags: Flags{Events: path}}, func(rec *obs.Rec) error {
		if rec == nil {
			t.Fatal("Rec missing with -events set")
		}
		rec.AddPoints([]string{"a"}, 2)
		w := rec.Worker(0)
		rec.PointStart(0)
		w.Start(obs.PhaseSimulate)
		w.Commit(0)
		w.Start(obs.PhaseSimulate)
		w.Abandon() // the failing trial's spans are discarded, not committed
		return errors.New("store write failed")
	})
	if code != 1 || stderr != "t: store write failed\n" {
		t.Fatalf("exit %d, stderr %q; want 1 and only the run error", code, stderr)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("event log holds %d lines, want at least run_start/trials/run_done:\n%s", len(lines), data)
	}
	type ev struct {
		Ev    string `json:"ev"`
		Error string `json:"error"`
	}
	var last ev
	for _, l := range lines {
		var e ev
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("unparsable (truncated?) event %q: %v", l, err)
		}
		last = e
	}
	if last.Ev != "run_done" || last.Error != "store write failed" {
		t.Errorf("final event = %+v, want run_done carrying the run error", last)
	}
}

// TestManifestRecordsTraceOutputs: the session's trace/timeline bookkeeping
// lands in the manifest, and stays omitted when off.
func TestManifestRecordsTraceOutputs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	ok := func(*obs.Rec) error { return nil }
	if code, stderr := runBody(Spec{Flags: Flags{Manifest: path}, TraceOut: "/tmp/run.trace.json", Timeline: true}, ok); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	m, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.TraceOut != "/tmp/run.trace.json" || !m.Timeline {
		t.Errorf("manifest trace fields = %q/%v", m.TraceOut, m.Timeline)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"traceOut"`) {
		t.Error("traceOut key missing from manifest JSON")
	}

	// Off: the omitempty fields disappear from the document entirely.
	path2 := filepath.Join(dir, "m2.json")
	if code, stderr := runBody(Spec{Flags: Flags{Manifest: path2}}, ok); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	raw, err = os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "traceOut") || strings.Contains(string(raw), `"timeline"`) {
		t.Error("trace fields serialized despite being off")
	}
}

// TestRecOnlyWhenAsked pins the session contract: with no obs flag and no
// store, the body's recorder is nil (recording fully off); with a manifest
// path it is live.
func TestRecOnlyWhenAsked(t *testing.T) {
	wantRec := func(want bool) func(*obs.Rec) error {
		return func(rec *obs.Rec) error {
			if (rec != nil) != want {
				return fmt.Errorf("recorder live = %v, want %v", rec != nil, want)
			}
			return nil
		}
	}
	if code, stderr := runBody(Spec{}, wantRec(false)); code != 0 {
		t.Errorf("no obs configuration: exit %d: %s", code, stderr)
	}

	manifest := filepath.Join(t.TempDir(), "m.json")
	if code, stderr := runBody(Spec{Flags: Flags{Manifest: manifest}}, wantRec(true)); code != 0 {
		t.Fatalf("-manifest: exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(manifest); err != nil {
		t.Errorf("manifest not written: %v", err)
	}

	// A store directory alone auto-archives into <store>/runs.
	storeDir := t.TempDir()
	if code, stderr := runBody(Spec{StoreDir: storeDir}, wantRec(true)); code != 0 {
		t.Fatalf("store directory: exit %d: %s", code, stderr)
	}
	runs, err := obs.ListRuns(obs.RunsDir(storeDir))
	if err != nil || len(runs) != 1 {
		t.Fatalf("auto-archived runs = %v, %v; want exactly one", runs, err)
	}
}
