package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"condaccess/internal/lab"
)

func TestParseArgsDefaults(t *testing.T) {
	opt, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.cfg
	if cfg.DS != "list" || cfg.KeyRange != 1000 {
		t.Errorf("default ds/range = %s/%d, want list/1000", cfg.DS, cfg.KeyRange)
	}
	if !reflect.DeepEqual(cfg.Threads, []int{1, 2, 4, 8, 16, 32}) {
		t.Errorf("default threads = %v", cfg.Threads)
	}
	if !reflect.DeepEqual(cfg.Updates, []int{0, 10, 100}) {
		t.Errorf("default updates = %v", cfg.Updates)
	}
	if cfg.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", cfg.Workers, runtime.GOMAXPROCS(0))
	}
	if cfg.Trials != 1 || cfg.Ops != 3000 || cfg.Seed != 1 {
		t.Errorf("default trials/ops/seed = %d/%d/%d", cfg.Trials, cfg.Ops, cfg.Seed)
	}
}

func TestParseArgsPaperKeyRanges(t *testing.T) {
	bst, err := parseArgs([]string{"-ds", "bst"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if bst.cfg.KeyRange != 10000 {
		t.Errorf("bst default range = %d, want 10000", bst.cfg.KeyRange)
	}
	over, err := parseArgs([]string{"-ds", "bst", "-range", "500"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if over.cfg.KeyRange != 500 {
		t.Errorf("-range not honored: %d", over.cfg.KeyRange)
	}
}

func TestParseArgsLists(t *testing.T) {
	opt, err := parseArgs([]string{
		"-schemes", "ca, rcu,,hp", "-threads", " 2 ,8", "-updates", "50",
		"-workers", "3", "-trials", "4", "-csv", "out.csv", "-v", "-lat",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.cfg
	if !reflect.DeepEqual(cfg.Schemes, []string{"ca", "rcu", "hp"}) {
		t.Errorf("schemes = %v", cfg.Schemes)
	}
	if !reflect.DeepEqual(cfg.Threads, []int{2, 8}) || !reflect.DeepEqual(cfg.Updates, []int{50}) {
		t.Errorf("threads/updates = %v/%v", cfg.Threads, cfg.Updates)
	}
	if cfg.Workers != 3 || cfg.Trials != 4 {
		t.Errorf("workers/trials = %d/%d", cfg.Workers, cfg.Trials)
	}
	if opt.csvPath != "out.csv" || !opt.verbose || !cfg.RecordLatency {
		t.Errorf("csv/verbose/lat not parsed: %+v", opt)
	}
}

func TestParseArgsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-threads", "1,zap"},
		{"-updates", "ten"},
		{"-ops", "many"},
		{"-nosuchflag"},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestParseArgsStoreFlag(t *testing.T) {
	opt, err := parseArgs([]string{"-store", "results/store"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.storePath != "results/store" {
		t.Errorf("storePath = %q, want results/store", opt.storePath)
	}
	opt, err = parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.storePath != "" {
		t.Errorf("default storePath = %q, want empty (no store)", opt.storePath)
	}
}

// TestStoreSummaryLine pins the stderr traffic line the CI smoke greps for.
func TestStoreSummaryLine(t *testing.T) {
	got := lab.StoreStats{Hits: 8, Misses: 0}.String()
	if got != "store: 8 hits, 0 misses (100% warm)" {
		t.Errorf("warm summary = %q", got)
	}
	got = lab.StoreStats{Hits: 0, Misses: 8}.String()
	if got != "store: 0 hits, 8 misses (0% warm)" {
		t.Errorf("cold summary = %q", got)
	}
}

func TestParseArgsTailFlag(t *testing.T) {
	opt, err := parseArgs([]string{"-ds", "list", "-tail"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.tail || !opt.cfg.RecordTail {
		t.Error("-tail must enable the tail table and tail recording")
	}
	if opt.cfg.RecordLatency {
		t.Error("-tail alone must not enable the -lat summary")
	}
	opt, err = parseArgs([]string{"-ds", "list"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.tail || opt.cfg.RecordLatency || opt.cfg.RecordTail {
		t.Error("tail reporting must be off by default")
	}
}

func TestParseArgsTimelineAndTraceFlags(t *testing.T) {
	opt, err := parseArgs([]string{"-ds", "list", "-timeline", "-timeline-window", "4096"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.timeline || !opt.cfg.RecordTimeline || opt.cfg.TimelineWindow != 4096 {
		t.Error("-timeline must enable timeline recording with the given window")
	}
	if opt.tracePath != "" || opt.cfg.RecordTail {
		t.Error("-timeline must not drag in tracing or tail recording")
	}

	// -trace forces one worker: one sink, trials in sweep order.
	opt, err = parseArgs([]string{"-ds", "list", "-workers", "8", "-trace", "t.json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.tracePath != "t.json" || opt.cfg.Workers != 1 {
		t.Errorf("-trace: path %q workers %d, want t.json and forced workers 1", opt.tracePath, opt.cfg.Workers)
	}

	opt, err = parseArgs([]string{"-ds", "list"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.timeline || opt.cfg.RecordTimeline || opt.tracePath != "" {
		t.Error("tracing and timelines must be off by default")
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
		{"unopenable store", []string{"-store", filepath.Join(plain, "store")}, 1},
		{"bad thread list", []string{"-threads", "1,x"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if got := stderr.String(); strings.Count(got, "\n") != 1 {
				t.Errorf("stderr is not exactly one line:\n%s", got)
			} else if strings.Contains(got, "Usage") || !strings.HasPrefix(got, "cabench: ") {
				t.Errorf("stderr is not a bare one-line diagnosis:\n%s", got)
			}
		})
	}
}
