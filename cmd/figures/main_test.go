package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"condaccess/internal/cli"
	"condaccess/internal/obs"
)

func TestParseArgsDefaults(t *testing.T) {
	opt, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := opt.g
	if g.out != "results" || g.seed != 1 || g.check {
		t.Errorf("unexpected defaults: %+v", g)
	}
	if !reflect.DeepEqual(g.threads, []int{1, 2, 4, 8, 16, 32}) {
		t.Errorf("full-scale threads = %v", g.threads)
	}
	if g.ops != 3000 || g.trials != 3 || g.memOps != 5000 {
		t.Errorf("full scale = ops %d / trials %d / memOps %d, want 3000/3/5000", g.ops, g.trials, g.memOps)
	}
	if opt.fig != "all" || opt.storePath != "" {
		t.Errorf("fig/store defaults: %+v", opt)
	}
	if g.workers < 1 {
		t.Errorf("workers default %d", g.workers)
	}
}

func TestParseArgsQuickScale(t *testing.T) {
	opt, err := parseArgs([]string{"-quick"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := opt.g
	if !reflect.DeepEqual(g.threads, []int{1, 4, 16, 32}) {
		t.Errorf("quick threads = %v", g.threads)
	}
	if g.ops != 800 || g.trials != 1 || g.memOps != 2000 {
		t.Errorf("quick scale = ops %d / trials %d / memOps %d, want 800/1/2000", g.ops, g.trials, g.memOps)
	}
}

func TestParseArgsTrialsOverride(t *testing.T) {
	opt, err := parseArgs([]string{"-quick", "-trials", "5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.g.trials != 5 {
		t.Errorf("-trials override lost: %d", opt.g.trials)
	}
}

func TestParseArgsFigAndStore(t *testing.T) {
	opt, err := parseArgs([]string{"-fig", "fig3mem", "-store", "results/store", "-out", "o", "-seed", "9"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.fig != "fig3mem" || opt.storePath != "results/store" || opt.g.out != "o" || opt.g.seed != 9 {
		t.Errorf("overrides not applied: %+v", opt)
	}
}

func TestParseArgsUnknownFig(t *testing.T) {
	_, err := parseArgs([]string{"-fig", "fig9nope"}, io.Discard)
	if err == nil {
		t.Fatal("unknown -fig accepted (it used to silently run nothing)")
	}
	if !strings.Contains(err.Error(), "fig9nope") {
		t.Errorf("error %q does not name the bad figure", err)
	}
}

func TestParseArgsBadFlagIsReported(t *testing.T) {
	var buf strings.Builder
	_, err := parseArgs([]string{"-trials", "x"}, &buf)
	if err == nil {
		t.Fatal("bad -trials accepted")
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

// TestFigOrderCoversJobs: every figure named in the run order must stay
// listed in the -fig validation set (figOrder is the single source).
func TestFigOrderCoversJobs(t *testing.T) {
	for _, name := range []string{"fig1list", "fig3mem", "tuning", "smt", "hmlist"} {
		if _, err := parseArgs([]string{"-fig", name}, io.Discard); err != nil {
			t.Errorf("-fig %s rejected: %v", name, err)
		}
	}
}

// TestRunFailureModes pins the CLI error contract: every failure exits
// non-zero after exactly one line on stderr — no panic, no usage dump.
func TestRunFailureModes(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A CSV whose writes fail: the figure's output file is /dev/full.
	full := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(full, "fig_tail_cdf.csv")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		dev  string // skip unless this device exists
	}{
		{"unopenable store", []string{"-store", filepath.Join(plain, "store")}, 1, ""},
		{"uncreatable output dir", []string{"-out", filepath.Join(plain, "results")}, 1, ""},
		{"unknown figure", []string{"-fig", "nope"}, 2, ""},
		{"csv on a full device", []string{"-quick", "-fig", "tail", "-out", full}, 1, "/dev/full"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.dev != "" {
				if _, err := os.Stat(tc.dev); err != nil {
					t.Skipf("%s: %v", tc.dev, err)
				}
			}
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if got := stderr.String(); strings.Count(got, "\n") != 1 {
				t.Errorf("stderr is not exactly one line:\n%s", got)
			} else if strings.Contains(got, "Usage") || !strings.HasPrefix(got, "figures: ") {
				t.Errorf("stderr is not a bare one-line diagnosis:\n%s", got)
			}
		})
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
	if !strings.HasPrefix(line, "figures ") || !strings.Contains(line, "engine ") {
		t.Errorf("version line = %q", line)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestPanelsGoToRunsWriter: a figure's panel summaries go to run's stdout
// writer, not to the process's, so a caller of run sees the whole report.
func TestPanelsGoToRunsWriter(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick", "-fig", "tail", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d (stderr %q)", code, stderr.String())
	}
	for _, config := range []string{"ca          : p50 ", "rcu_batch30 : p50 ", "rcu_batch400: p50 "} {
		if !strings.Contains(stdout.String(), config) {
			t.Errorf("panel line %q missing from run's stdout:\n%s", config, stdout.String())
		}
	}
}

// TestAblationsIgnoreWorkers: the ablations run on the -workers pool like
// the sweeps, and what they print and write does not depend on it.
func TestAblationsIgnoreWorkers(t *testing.T) {
	timing := regexp.MustCompile(`(?m)^### .* done in .*$`)
	var stdouts, csvs []string
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	for _, workers := range []int{1, 3} {
		out := t.TempDir()
		args := []string{"-quick", "-fig", "tail", "-workers", strconv.Itoa(workers), "-out", out}
		if workers == 3 {
			args = append(args, "-manifest", manifest)
		}
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d (stderr %q)", args, code, stderr.String())
		}
		csv, err := os.ReadFile(filepath.Join(out, "fig_tail_cdf.csv"))
		if err != nil {
			t.Fatal(err)
		}
		stdouts = append(stdouts, timing.ReplaceAllString(stdout.String(), ""))
		csvs = append(csvs, string(csv))
	}
	if stdouts[0] != stdouts[1] {
		t.Errorf("stdout depends on -workers:\n%s\nvs\n%s", stdouts[0], stdouts[1])
	}
	if csvs[0] != csvs[1] {
		t.Error("fig_tail_cdf.csv depends on -workers")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return // one worker is all the pool can run here
	}
	m, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workers) < 2 {
		t.Errorf("-workers 3 ran on %d worker(s), want the ablation spread over several", len(m.Workers))
	}
}
