package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/scenario"
)

func TestParseArgsSubcommands(t *testing.T) {
	cases := []struct {
		args []string
		want options
	}{
		{[]string{"inspect", "-store", "d"}, options{cmd: "inspect", store: "d"}},
		{[]string{"verify", "-store", "d"}, options{cmd: "verify", store: "d"}},
		{[]string{"gc", "-store", "d", "-all"}, options{cmd: "gc", store: "d", all: true}},
		{[]string{"gc", "-store", "d"}, options{cmd: "gc", store: "d"}},
		{[]string{"export", "-store", "d", "-csv", "out.csv"}, options{cmd: "export", store: "d", csvPath: "out.csv"}},
		{[]string{"diff", "-a", "x", "-b", "y"}, options{cmd: "diff", a: "x", b: "y"}},
		{[]string{"pack", "-store", "d"}, options{cmd: "pack", store: "d"}},
		{[]string{"merge", "s1", "dst"}, options{cmd: "merge", srcs: []string{"s1"}, store: "dst"}},
		{[]string{"merge", "s1", "s2", "dst"}, options{cmd: "merge", srcs: []string{"s1", "s2"}, store: "dst"}},
	}
	for _, tc := range cases {
		opt, err := parseArgs(tc.args, io.Discard)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(opt, tc.want) {
			t.Errorf("%v: parsed %+v, want %+v", tc.args, opt, tc.want)
		}
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := [][]string{
		nil,                        // missing subcommand
		{"nosuchcmd"},              // unknown subcommand
		{"inspect"},                // missing -store
		{"gc"},                     // missing -store
		{"diff", "-a", "x"},        // missing -b
		{"diff", "-b", "y"},        // missing -a
		{"pack"},                   // missing -store
		{"merge"},                  // no stores at all
		{"merge", "onlydst"},       // no sources
		{"inspect", "-nosuchflag"}, // flag error
	}
	for _, args := range cases {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("%v: accepted, want error", args)
		}
	}
}

func TestParseArgsHelp(t *testing.T) {
	var buf strings.Builder
	_, err := parseArgs([]string{"help"}, &buf)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("help returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(buf.String(), "usage: calab") {
		t.Error("help printed no usage")
	}
}

// TestReadCommandsRejectMissingStore: a typo'd -store path must be an
// error, not a freshly created empty store reporting zero entries.
func TestReadCommandsRejectMissingStore(t *testing.T) {
	missing := t.TempDir() + "/nosuchstore"
	for _, opt := range []options{
		{cmd: "inspect", store: missing},
		{cmd: "verify", store: missing},
		{cmd: "gc", store: missing},
		{cmd: "export", store: missing},
		{cmd: "diff", a: missing, b: missing},
		{cmd: "pack", store: missing},
	} {
		if err := dispatch(opt, io.Discard); err == nil {
			t.Errorf("%s: missing store accepted", opt.cmd)
		}
	}
}

// TestExportQuotesCommas: scenario names come from user JSON and may
// contain commas; export must emit parseable CSV regardless.
func TestExportQuotesCommas(t *testing.T) {
	dir := t.TempDir()
	st, err := lab.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Preset("read-burst")
	if err != nil {
		t.Fatal(err)
	}
	sc.Name = "spike, then drain"
	r := bench.Runner{Store: st}
	if _, err := r.RunScenario(bench.ScenarioWorkload{
		DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, Seed: 1, Scenario: sc,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := dispatch(options{cmd: "export", store: dir}, &out); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("export emitted unparseable CSV: %v\n%s", err, out.String())
	}
	if len(recs) != 2 || len(recs[1]) != len(recs[0]) {
		t.Fatalf("rows/columns off: %v", recs)
	}
	if recs[1][5] != "spike, then drain" {
		t.Fatalf("scenario column = %q, want the comma'd name intact", recs[1][5])
	}
}

// fillStore runs one tiny sweep into the store at dir, creating it if
// needed, and returns the run's store traffic.
func fillStore(t *testing.T, dir string) lab.StoreStats {
	t.Helper()
	st, err := lab.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Sweep(bench.SweepConfig{
		DS: "list", Schemes: []string{"ca"}, Threads: []int{2}, Updates: []int{100},
		KeyRange: 32, Ops: 50, Seed: 9, Trials: 2, Store: st,
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Close flushes the batched segment writes, the same way the CLI
	// fillers (cabench -store etc.) do on exit.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st.Stats()
}

// TestPackEndToEnd: a cold run leaves one segment and a warm re-run adds
// none; pack rewrites the store into one segment in place, writes nothing
// beside it, and the packed store keeps serving the same entries.
func TestPackEndToEnd(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir)
	fillStore(t, dir)
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Fatalf("a cold and a warm run left %d segments, want the cold run's 1", len(segs))
	}

	var out strings.Builder
	if err := dispatch(options{cmd: "pack", store: dir}, &out); err != nil {
		t.Fatalf("pack: %v", err)
	}
	if !strings.Contains(out.String(), "store now holds 2 packed entries") {
		t.Errorf("pack output: %s", out.String())
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "segments")); err != nil || len(ents) != 1 {
		t.Errorf("pack left %d files in segments/ (err %v), want its one segment", len(ents), err)
	}

	out.Reset()
	if err := dispatch(options{cmd: "verify", store: dir}, &out); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(out.String(), "2 sound entries, 0 problems") {
		t.Errorf("verify output after pack: %s", out.String())
	}
	out.Reset()
	if err := dispatch(options{cmd: "inspect", store: dir}, &out); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(out.String(), "2 trial + 0 scenario") {
		t.Errorf("inspect output after pack: %s", out.String())
	}
}

// segmentFiles lists the store's segment files.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestVerifyAdviceClearsCorruption follows verify's advice after a segment
// record is corrupted: verify fails; a re-run takes one miss and heals the
// lookup, but the bad record stays behind its replacement, so verify still
// fails and names pack; after pack, verify passes.
func TestVerifyAdviceClearsCorruption(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir)
	seg := segmentFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // inside the segment's last record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := dispatch(options{cmd: "verify", store: dir}, &out); err == nil {
		t.Fatalf("verify passed a corrupt record:\n%s", out.String())
	}
	if s := fillStore(t, dir); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("re-run traffic %+v, want the corrupt entry's one miss and one hit", s)
	}
	out.Reset()
	err = dispatch(options{cmd: "verify", store: dir}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 problems") || !strings.Contains(err.Error(), "then calab pack or calab gc") {
		t.Fatalf("verify after re-run: err %v, want the bad record reported with pack/gc advice", err)
	}
	if err := dispatch(options{cmd: "pack", store: dir}, io.Discard); err != nil {
		t.Fatalf("pack: %v", err)
	}
	out.Reset()
	if err := dispatch(options{cmd: "verify", store: dir}, &out); err != nil {
		t.Fatalf("verify after pack: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 sound entries, 0 problems") {
		t.Errorf("verify output after pack: %s", out.String())
	}
}

// TestMergeEndToEnd: two shard stores with an overlapping entry fold into a
// fresh destination; the merged store serves every entry, and a missing
// source is an error rather than a silently created empty store.
func TestMergeEndToEnd(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	fill := func(dir string, seed uint64) {
		st, err := lab.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bench.Sweep(bench.SweepConfig{
			DS: "list", Schemes: []string{"ca"}, Threads: []int{2}, Updates: []int{100},
			KeyRange: 32, Ops: 50, Seed: seed, Trials: 2, Store: st,
		}, nil); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fill(dirA, 9)
	fill(dirB, 9)  // same grid: fully overlapping with dirA
	fill(dirB, 10) // plus two entries dirA lacks

	dst := filepath.Join(t.TempDir(), "main")
	var out strings.Builder
	if err := dispatch(options{cmd: "merge", srcs: []string{dirA, dirB}, store: dst}, &out); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !strings.Contains(out.String(), "merged 4 entries from 2 sources into "+dst+" (2 already present)") {
		t.Errorf("merge output: %s", out.String())
	}

	out.Reset()
	if err := dispatch(options{cmd: "inspect", store: dst}, &out); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(out.String(), "4 trial + 0 scenario") {
		t.Errorf("merged store inspect: %s", out.String())
	}

	// Merge is idempotent: a second run copies nothing.
	out.Reset()
	if err := dispatch(options{cmd: "merge", srcs: []string{dirA, dirB}, store: dst}, &out); err != nil {
		t.Fatalf("re-merge: %v", err)
	}
	if !strings.Contains(out.String(), "merged 0 entries from 2 sources into "+dst+" (6 already present)") {
		t.Errorf("re-merge output: %s", out.String())
	}

	missing := filepath.Join(t.TempDir(), "nosuchstore")
	if err := dispatch(options{cmd: "merge", srcs: []string{missing}, store: dst}, io.Discard); err == nil {
		t.Error("merge accepted a missing source store")
	}
}

// TestCommandsEndToEnd drives every subcommand against real stores.
func TestCommandsEndToEnd(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	fillStore(t, dirA)
	fillStore(t, dirB)

	var out strings.Builder
	if err := dispatch(options{cmd: "inspect", store: dirA}, &out); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	for _, want := range []string{"2 trial + 0 scenario", "list/ca t=2 u=100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := dispatch(options{cmd: "verify", store: dirA}, &out); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(out.String(), "2 sound entries, 0 problems") {
		t.Errorf("verify output: %s", out.String())
	}

	out.Reset()
	if err := dispatch(options{cmd: "export", store: dirA}, &out); err != nil {
		t.Fatalf("export: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header + 2 trials
		t.Fatalf("export rows = %d, want 3:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "kind,ds,scheme,threads,update_pct") {
		t.Errorf("export header: %s", lines[0])
	}

	out.Reset()
	if err := dispatch(options{cmd: "diff", a: dirA, b: dirB}, &out); err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !strings.Contains(out.String(), "1 aligned cells, 0 significant differences") {
		t.Errorf("identical stores must align without significance:\n%s", out.String())
	}

	out.Reset()
	if err := dispatch(options{cmd: "gc", store: dirA}, &out); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if !strings.Contains(out.String(), "removed 0 entries, kept 2") {
		t.Errorf("gc output: %s", out.String())
	}

	out.Reset()
	if err := dispatch(options{cmd: "gc", store: dirA, all: true}, &out); err != nil {
		t.Fatalf("gc -all: %v", err)
	}
	if !strings.Contains(out.String(), "removed 2 entries, kept 0") {
		t.Errorf("gc -all output: %s", out.String())
	}
}

// TestRunFailureModes pins the exit contract calab shares with every
// command: command-line errors exit 2, runtime failures exit 1, each after
// exactly one stderr line, and version prints one stdout line and exits 0.
func TestRunFailureModes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nosuchstore")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout int    // stdout lines
		prefix string // of the one stderr line; "" for none
	}{
		{"missing subcommand", nil, 2, 0, "usage: calab "},
		{"unknown subcommand", []string{"nosuchcmd"}, 2, 0, "usage: calab "},
		{"inspect without -store", []string{"inspect"}, 2, 0, "calab: inspect: -store is required"},
		{"missing store", []string{"inspect", "-store", missing}, 1, 0, "calab: lab: "},
		{"version", []string{"version"}, 0, 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if n := strings.Count(stdout.String(), "\n"); n != tc.stdout {
				t.Errorf("stdout has %d lines, want %d:\n%s", n, tc.stdout, stdout.String())
			}
			got := stderr.String()
			if tc.prefix == "" {
				if got != "" {
					t.Errorf("stderr = %q, want empty", got)
				}
			} else if strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, tc.prefix) {
				t.Errorf("stderr is not one line starting %q:\n%s", tc.prefix, got)
			}
		})
	}
}
