package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/cli"
)

func TestParseArgsDefaults(t *testing.T) {
	opt, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	w := opt.w
	if w.DS != "list" || w.Threads != 16 || w.UpdatePct != 100 || w.KeyRange != 1000 ||
		w.OpsPerThread != 2000 || w.Seed != 1 || w.Dist != "uniform" {
		t.Errorf("unexpected defaults: %+v", w)
	}
	if !w.RecordLatency {
		t.Error("castat must always record latency percentiles")
	}
	want := []string{"none", "ca", "ibr", "rcu", "qsbr", "hp", "he"}
	if !reflect.DeepEqual(opt.schemes, want) {
		t.Errorf("schemes = %v, want %v", opt.schemes, want)
	}
}

func TestParseArgsOverrides(t *testing.T) {
	opt, err := parseArgs([]string{
		"-ds", "bst", "-schemes", " ca , rcu ,", "-threads", "8",
		"-updates", "10", "-ops", "500", "-range", "10000",
		"-dist", "zipf", "-seed", "7",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	w := opt.w
	if w.DS != "bst" || w.Threads != 8 || w.UpdatePct != 10 || w.KeyRange != 10000 ||
		w.OpsPerThread != 500 || w.Seed != 7 || w.Dist != "zipf" {
		t.Errorf("overrides not applied: %+v", w)
	}
	if !reflect.DeepEqual(opt.schemes, []string{"ca", "rcu"}) {
		t.Errorf("schemes = %v (whitespace and empties should be dropped)", opt.schemes)
	}
}

// TestParseArgsPaperKeyRanges: the key range defaults per structure as in
// cabench, so castat explains the cell cabench reports: 10K keys for the
// BST (Figure 1's bottom row), 1K for the list.
func TestParseArgsPaperKeyRanges(t *testing.T) {
	for ds, want := range map[string]uint64{"bst": 10000, "list": 1000} {
		opt, err := parseArgs([]string{"-ds", ds}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if opt.w.KeyRange != want {
			t.Errorf("-ds %s: key range %d, want %d", ds, opt.w.KeyRange, want)
		}
	}
}

func TestParseArgsEmptySchemes(t *testing.T) {
	if _, err := parseArgs([]string{"-schemes", " , "}, io.Discard); err == nil {
		t.Fatal("empty scheme list accepted")
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

// TestVersionFlag pins the shared -version contract: exit 0, one stdout
// line naming the tool and engine tag, nothing on stderr.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -version = %d (stderr %q)", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "castat ") || !strings.Contains(line, "engine ") {
		t.Errorf("version line = %q", line)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestHeapHighWater pins the memory line's high-water mark to the same
// trial's peak live set plus its infrastructure lines: the allocator reuses
// a freed line before it carves a new one, so the heap never grows past
// that sum, and the live heap at the end of the trial is not its peak.
func TestHeapHighWater(t *testing.T) {
	args := []string{"-ds", "list", "-schemes", "rcu", "-threads", "4", "-ops", "300", "-range", "128"}
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("castat = %d (stderr %q)", code, stderr.String())
	}
	var live, peak, highWater uint64
	for _, line := range strings.Split(stdout.String(), "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "memory:") {
			if _, err := fmt.Sscanf(line, "memory: live %d nodes, peak %d, heap high-water %d lines", &live, &peak, &highWater); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	opt, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	w := opt.w
	w.Scheme = "rcu"
	res, err := bench.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if peak != res.Mem.PeakLive {
		t.Errorf("printed peak %d, trial peak %d", peak, res.Mem.PeakLive)
	}
	if want := res.Mem.PeakLive + res.Mem.InfraLines; highWater != want {
		t.Errorf("printed heap high-water %d lines, want peak %d + infra %d = %d",
			highWater, res.Mem.PeakLive, res.Mem.InfraLines, want)
	}
}
