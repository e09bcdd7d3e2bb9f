package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condaccess/internal/cli"
)

func TestParseArgsDefaults(t *testing.T) {
	opt, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.ws) != 7 || len(opt.schemes) != 7 {
		t.Fatalf("default scheme count = %d workloads / %d names, want 7", len(opt.ws), len(opt.schemes))
	}
	w := opt.ws[1]
	if opt.schemes[1] != "ca" || w.Scheme != "ca" {
		t.Errorf("scheme order broken: %v", opt.schemes)
	}
	if w.DS != "list" || w.Threads != 16 || w.KeyRange != 1000 || w.UpdatePct != 100 ||
		w.OpsPerThread != 5000 || w.FootprintEvery != 1000 || w.Seed != 1 {
		t.Errorf("paper defaults wrong: %+v", w)
	}
	if opt.csvPath != "" || opt.storePath != "" {
		t.Errorf("csv/store defaults: %+v", opt)
	}
	if opt.workers < 1 {
		t.Errorf("workers default %d", opt.workers)
	}
}

func TestParseArgsOverrides(t *testing.T) {
	opt, err := parseArgs([]string{
		"-schemes", " ca , rcu ,", "-threads", "4", "-range", "64",
		"-ops", "200", "-sample", "50", "-seed", "3", "-check",
		"-csv", "out.csv", "-store", "results/store", "-workers", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.ws) != 2 || opt.schemes[0] != "ca" || opt.schemes[1] != "rcu" {
		t.Errorf("schemes = %v (whitespace and empties should be dropped)", opt.schemes)
	}
	w := opt.ws[0]
	if w.Threads != 4 || w.KeyRange != 64 || w.OpsPerThread != 200 ||
		w.FootprintEvery != 50 || w.Seed != 3 || !w.Check {
		t.Errorf("overrides not applied: %+v", w)
	}
	if opt.csvPath != "out.csv" || opt.storePath != "results/store" || opt.workers != 2 {
		t.Errorf("output/store/workers: %+v", opt)
	}
}

func TestParseArgsEmptySchemes(t *testing.T) {
	if _, err := parseArgs([]string{"-schemes", " , "}, io.Discard); err == nil {
		t.Fatal("empty scheme list accepted")
	}
}

func TestParseArgsBadFlagIsReported(t *testing.T) {
	var buf strings.Builder
	_, err := parseArgs([]string{"-ops", "many"}, &buf)
	if err == nil {
		t.Fatal("bad -ops accepted")
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

// TestVersionFlag pins the shared -version contract: exit 0, one stdout
// line naming the tool and engine tag, nothing on stderr.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -version = %d (stderr %q)", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "camem ") || !strings.Contains(line, "engine ") {
		t.Errorf("version line = %q", line)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestRunFailureModes pins the CLI error contract: every failure exits
// non-zero after exactly one line on stderr — no panic, no usage dump.
func TestRunFailureModes(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-schemes", "ca,rcu", "-threads", "2", "-ops", "200", "-range", "64", "-sample", "100"}
	for _, tc := range []struct {
		name string
		args []string
		code int
		dev  string // skip unless this device exists
	}{
		{"empty scheme list", []string{"-schemes", ","}, 2, ""},
		{"zero sample interval", append(small, "-sample", "0"), 2, ""},
		{"negative sample interval", append(small, "-sample", "-200"), 2, ""},
		{"unopenable store", append(small, "-store", filepath.Join(plain, "store")), 1, ""},
		{"csv on a full device", append(small, "-csv", "/dev/full"), 1, "/dev/full"},
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
			} else if strings.Contains(got, "Usage") || !strings.HasPrefix(got, "camem: ") {
				t.Errorf("stderr is not a bare one-line diagnosis:\n%s", got)
			}
		})
	}
}
