package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/cli"
	"condaccess/internal/scenario"
)

func TestParseArgsPreset(t *testing.T) {
	opt, err := parseArgs([]string{"-preset", "read-burst"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sw := opt.sw
	if sw.DS != "list" || sw.Threads != 8 || sw.KeyRange != 1000 || sw.Seed != 1 || sw.Dist != "uniform" {
		t.Errorf("unexpected defaults: %+v", sw)
	}
	if sw.Scenario.Name != scenario.PresetReadBurst || len(sw.Scenario.Phases) != 3 {
		t.Errorf("scenario not resolved: %+v", sw.Scenario)
	}
	if !reflect.DeepEqual(opt.schemes, []string{"ca", "rcu"}) {
		t.Errorf("schemes = %v", opt.schemes)
	}
}

func TestParseArgsOverrides(t *testing.T) {
	opt, err := parseArgs([]string{
		"-preset", "churn-drain", "-ds", "bst", "-schemes", " ca , hp ,",
		"-threads", "16", "-seed", "7", "-check", "-lat",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sw := opt.sw
	if sw.DS != "bst" || sw.Threads != 16 || sw.KeyRange != 10000 || sw.Seed != 7 {
		t.Errorf("overrides not applied: %+v", sw)
	}
	if !sw.Check || !sw.RecordLatency || !opt.lat {
		t.Error("-check/-lat not applied")
	}
	if !reflect.DeepEqual(opt.schemes, []string{"ca", "hp"}) {
		t.Errorf("schemes = %v (whitespace and empties should be dropped)", opt.schemes)
	}
}

func TestParseArgsFile(t *testing.T) {
	sc := scenario.Scenario{
		Name:   "custom",
		Phases: []scenario.Phase{{Name: "p", Ops: 10, Weights: scenario.Weights{Read: 1}}},
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opt, err := parseArgs([]string{"-file", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.sw.Scenario.Name != "custom" {
		t.Errorf("scenario = %+v", opt.sw.Scenario)
	}
}

func TestParseArgsRejects(t *testing.T) {
	cases := map[string][]string{
		"no source":       nil,
		"both sources":    {"-preset", "read-burst", "-file", "x.json"},
		"unknown preset":  {"-preset", "nope"},
		"missing file":    {"-file", "/definitely/not/here.json"},
		"empty schemes":   {"-preset", "read-burst", "-schemes", " , "},
		"too few threads": {"-preset", "mixed-role", "-threads", "2"},
	}
	for name, args := range cases {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseArgsList(t *testing.T) {
	opt, err := parseArgs([]string{"-list"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.list {
		t.Fatal("-list not honored")
	}
	var buf strings.Builder
	printPresets(&buf)
	for _, name := range scenario.PresetNames() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("preset listing missing %s", name)
		}
	}
}

func TestParseArgsBadFlagIsReported(t *testing.T) {
	var buf strings.Builder
	_, err := parseArgs([]string{"-threads", "x"}, &buf)
	if err == nil {
		t.Fatal("bad -threads accepted")
	}
	var rep cli.Reported
	if !errors.As(err, &rep) {
		t.Errorf("flag-package error not marked reported: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("flag package printed nothing to stderr")
	}
}

func TestParseArgsHelp(t *testing.T) {
	_, err := parseArgs([]string{"-h"}, io.Discard)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

func TestParseArgsStoreFlag(t *testing.T) {
	opt, err := parseArgs([]string{"-preset", "read-burst", "-store", "results/store"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.storePath != "results/store" {
		t.Errorf("storePath = %q, want results/store", opt.storePath)
	}
	opt, err = parseArgs([]string{"-preset", "read-burst"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.storePath != "" {
		t.Errorf("default storePath = %q, want empty", opt.storePath)
	}
}

func TestParseArgsTailFlag(t *testing.T) {
	opt, err := parseArgs([]string{"-preset", "churn-drain", "-tail"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.tail || !opt.sw.RecordTail {
		t.Error("-tail must enable tail reporting and tail recording")
	}
	if opt.lat || opt.sw.RecordLatency {
		t.Error("-tail alone must not enable the -lat summary")
	}
}

func TestParseArgsTimelineAndTraceFlags(t *testing.T) {
	opt, err := parseArgs([]string{"-preset", "churn-drain", "-timeline", "-trace", "t.json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.timeline || !opt.sw.RecordTimeline {
		t.Error("-timeline must enable timeline recording")
	}
	if opt.tracePath != "t.json" {
		t.Errorf("tracePath = %q, want t.json", opt.tracePath)
	}
	opt, err = parseArgs([]string{"-preset", "churn-drain", "-timeline-window", "8192"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.sw.TimelineWindow != 8192 {
		t.Errorf("TimelineWindow = %d, want 8192", opt.sw.TimelineWindow)
	}
	opt, err = parseArgs([]string{"-preset", "churn-drain"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.timeline || opt.sw.RecordTimeline || opt.tracePath != "" {
		t.Error("tracing and timelines must be off by default")
	}
}

// TestTailTableConsistency is the acceptance check for the -tail report:
// for every phase (and the total), the per-kind counts (insert+delete+read)
// and the per-attribution counts (useful+reclaim+retry) printed by the
// table must each sum to the phase's op count.
func TestTailTableConsistency(t *testing.T) {
	opt, err := parseArgs([]string{
		"-preset", "churn-drain", "-ds", "list", "-schemes", "rcu",
		"-threads", "4", "-range", "128", "-tail",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sw := opt.sw
	sw.Scheme = opt.schemes[0]
	res, err := bench.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	printTail(&buf, res)
	out := buf.String()

	// Parse every table: "-- tail latency [cycles]: <name> (<ops> ops) --"
	// followed by class rows whose second column is the count.
	var ops uint64
	counts := map[string]uint64{}
	checkTable := func(header string) {
		t.Helper()
		if kinds := counts["insert"] + counts["delete"] + counts["read"]; kinds != ops {
			t.Errorf("%s: kind counts sum to %d, ops are %d\n%s", header, kinds, ops, out)
		}
		if attrs := counts["useful"] + counts["reclaim"] + counts["retry"]; attrs != ops {
			t.Errorf("%s: attribution counts sum to %d, ops are %d\n%s", header, attrs, ops, out)
		}
		if counts["total"] != ops {
			t.Errorf("%s: total row count %d, ops are %d", header, counts["total"], ops)
		}
	}
	header := ""
	tables := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-- tail latency") {
			if header != "" {
				checkTable(header)
			}
			header = line
			tables++
			counts = map[string]uint64{}
			if _, err := fmt.Sscanf(line[strings.Index(line, "(")+1:], "%d ops", &ops); err != nil {
				t.Fatalf("unparseable table header %q: %v", line, err)
			}
			continue
		}
		var name string
		var n uint64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &n); err == nil && name != "class" {
			counts[name] = n
		}
	}
	if header != "" {
		checkTable(header)
	}
	if want := len(res.Phases) + 1; tables != want {
		t.Fatalf("printed %d tail tables, want %d (per phase + total)", tables, want)
	}
	if res.Tail.Pause.Count() == 0 {
		t.Fatal("rcu churn-drain recorded no reclamation pauses; the attribution column is untested")
	}
}

// TestRunFailureModes pins the CLI error contract: every failure exits
// non-zero after exactly one line on stderr — no panic, no usage dump.
func TestRunFailureModes(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"missing scenario file", []string{"-file", filepath.Join(t.TempDir(), "nope.json")}, 2},
		{"unreadable scenario file", []string{"-file", t.TempDir()}, 2},
		{"scenario file is not JSON", []string{"-file", plain}, 2},
		{"unopenable store", []string{"-preset", "read-burst", "-store", filepath.Join(plain, "store")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if got := stderr.String(); strings.Count(got, "\n") != 1 {
				t.Errorf("stderr is not exactly one line:\n%s", got)
			} else if strings.Contains(got, "Usage") || !strings.HasPrefix(got, "cascenario: ") {
				t.Errorf("stderr is not a bare one-line diagnosis:\n%s", got)
			}
		})
	}
}

// TestFailedRunKeepsCompletedTrials pins the durability fix: a run that
// fails partway (unknown scheme after a completed one) must still flush the
// completed trial on Close, so a re-run of the good scheme is warm.
func TestFailedRunKeepsCompletedTrials(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	var out, errb strings.Builder
	code := run([]string{"-preset", "read-burst", "-schemes", "ca,bogus", "-threads", "2", "-store", store}, &out, &errb)
	if code != 1 {
		t.Fatalf("run with unknown scheme exited %d, want 1 (stderr %q)", code, errb.String())
	}
	if got := errb.String(); strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, "cascenario: ") {
		t.Errorf("failure stderr is not exactly one cascenario line:\n%s", got)
	}
	var wout, werr strings.Builder
	if code := run([]string{"-preset", "read-burst", "-schemes", "ca", "-threads", "2", "-store", store}, &wout, &werr); code != 0 {
		t.Fatalf("warm re-run failed (%d): %s", code, werr.String())
	}
	if !strings.Contains(werr.String(), "store: 1 hits, 0 misses (100% warm)") {
		t.Errorf("completed trial was lost on failure:\n%s", werr.String())
	}
}

// TestVersionFlag pins the shared -version contract: exit 0, one stdout
// line naming the tool and engine tag, nothing on stderr.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -version = %d (stderr %q)", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "cascenario ") || !strings.Contains(line, "engine ") {
		t.Errorf("version line = %q", line)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}
