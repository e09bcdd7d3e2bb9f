package bench

import (
	"runtime"
	"strings"
	"testing"

	"condaccess/internal/cache"
)

// TestSweepErrorPaths covers the ways a sweep configuration can fail, on
// one worker and on the pool: the error must carry the sweep coordinates
// and no points may be returned.
func TestSweepErrorPaths(t *testing.T) {
	base := SweepConfig{
		Schemes: []string{"ca"}, Threads: []int{2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: 1,
	}
	cases := []struct {
		name    string
		mutate  func(*SweepConfig)
		wantSub string
	}{
		{"invalid ds", func(c *SweepConfig) { c.DS = "nosuchds" }, "unknown structure"},
		{"invalid scheme", func(c *SweepConfig) { c.DS = "list"; c.Schemes = []string{"nosuchscheme"} }, "unknown scheme"},
		{"zero threads", func(c *SweepConfig) { c.DS = "list"; c.Threads = []int{0} }, "threads"},
		{"mismatched cache cores", func(c *SweepConfig) {
			c.DS = "list"
			c.Cache = cache.DefaultParams(8) // threads is 2
		}, "cache params cores"},
	}
	for _, tc := range cases {
		tc := tc
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t.Run(tc.name, func(t *testing.T) {
				cfg := base
				tc.mutate(&cfg)
				cfg.Workers = workers
				points, err := Sweep(cfg, nil)
				if err == nil {
					t.Fatalf("workers=%d: config accepted, want error", workers)
				}
				if points != nil {
					t.Fatalf("workers=%d: got points alongside error", workers)
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("workers=%d: error %q does not mention %q", workers, err, tc.wantSub)
				}
				if !strings.Contains(err.Error(), "sweep ") {
					t.Fatalf("workers=%d: error %q lacks sweep coordinates", workers, err)
				}
			})
		}
	}
}

// TestSweepConfigValidation: structurally malformed sweeps — empty axes
// (which used to return silently empty output), negative trials or workers —
// must be rejected up front with a clear error, before any trial runs.
func TestSweepConfigValidation(t *testing.T) {
	base := SweepConfig{
		DS: "list", Schemes: []string{"ca"}, Threads: []int{2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: 1,
	}
	cases := []struct {
		name    string
		mutate  func(*SweepConfig)
		wantSub string
	}{
		{"negative trials", func(c *SweepConfig) { c.Trials = -1 }, "trials"},
		{"negative workers", func(c *SweepConfig) { c.Workers = -2 }, "workers"},
		{"no schemes", func(c *SweepConfig) { c.Schemes = nil }, "no schemes"},
		{"no threads", func(c *SweepConfig) { c.Threads = nil }, "no thread counts"},
		{"no updates", func(c *SweepConfig) { c.Updates = nil }, "no update rates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			points, err := Sweep(cfg, nil)
			if err == nil {
				t.Fatal("malformed sweep accepted")
			}
			if points != nil {
				t.Fatal("got points alongside error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestSweepZeroTrialsDefaultsToOne: Trials: 0 is the config's zero-value
// default and must behave exactly like Trials: 1 rather than producing no
// points or dividing by zero (negative trial counts are rejected).
func TestSweepZeroTrialsDefaultsToOne(t *testing.T) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca"}, Threads: []int{1, 2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: 1,
	}
	zero, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trials = 1
	one, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero) != len(one) || len(zero) != 2 {
		t.Fatalf("point counts: zero-trials %d, one-trial %d, want 2", len(zero), len(one))
	}
	for i := range zero {
		if zero[i].Throughput != one[i].Throughput {
			t.Fatalf("point %d: zero-trials throughput %f != one-trial %f", i, zero[i].Throughput, one[i].Throughput)
		}
	}
}

// TestSweepCacheOverride: a cache geometry whose core count matches the
// swept thread count must be applied, not silently dropped.
func TestSweepCacheOverride(t *testing.T) {
	p := cache.DefaultParams(2)
	p.L1Assoc = 2
	points, err := Sweep(SweepConfig{
		DS: "list", Schemes: []string{"ca"}, Threads: []int{2}, Updates: []int{100},
		KeyRange: 32, Ops: 60, Seed: 1, Cache: p,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Result.W.Cache.L1Assoc; got != 2 {
		t.Fatalf("cache override not applied: L1Assoc = %d, want 2", got)
	}
}
