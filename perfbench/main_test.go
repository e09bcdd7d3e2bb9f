package main

import (
	"bytes"
	"encoding/json"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench runs the benchmark in-process for a short measured phase and
// returns its exit code and parsed result line (nil when none was printed).
func runBench(t *testing.T, args ...string) (int, *result) {
	t.Helper()
	args = append([]string{"--seconds", "0.1", "--work", t.TempDir()}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Logf("stderr:\n%s", stderr.String())
		return code, nil
	}
	return code, &res
}

// TestChecksPass: on the default seed, both cheap workloads pass every
// check, the pinned digest included, and exit 0.
func TestChecksPass(t *testing.T) {
	for _, w := range []string{"store-warm", "churn-32t"} {
		code, res := runBench(t, "--workload", w, "--seed", "1")
		if code != 0 || res == nil || !res.Correct || res.Failed != 0 {
			t.Errorf("%s: exit %d, result %+v; want a clean pass", w, code, res)
		}
	}
}

// TestInjectedFaultsFail plants each fault the checks exist for and
// requires a failed fraction above zero and a non-zero exit.
func TestInjectedFaultsFail(t *testing.T) {
	for _, c := range []struct{ workload, inject string }{
		{"store-warm", "flip-render"},
		{"store-warm", "force-miss"},
		{"churn-32t", "bad-digest"},
	} {
		code, res := runBench(t, "--workload", c.workload, "--seed", "1", "--inject", c.inject)
		if code == 0 {
			t.Errorf("%s with %s: exit 0, want a failure", c.workload, c.inject)
		}
		if res == nil || res.Correct || res.Attempted == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
			t.Errorf("%s with %s: result %+v, want failed_frac > 0", c.workload, c.inject, res)
		}
	}
}

// TestCountsRepeat: the warm path's budgets and the simulated-statistics
// digest are counts, identical across two runs of one seed.
func TestCountsRepeat(t *testing.T) {
	measureCounts := func() (storeCounts, uint64) {
		e := &env{scratch: t.TempDir(), seed: 3}
		j, err := setupStoreWarm(e)
		if err != nil {
			t.Fatal(err)
		}
		defer j.close()
		s := j.(*storeWarm)
		if _, err := s.pass(nil); err != nil {
			t.Fatal(err)
		}
		c, err := s.counts()
		if err != nil {
			t.Fatal(err)
		}
		return c, s.digest
	}
	c1, d1 := measureCounts()
	c2, d2 := measureCounts()
	if c1 != c2 || d1 != d2 {
		t.Errorf("counts differ across runs of one seed: %+v digest %x vs %+v digest %x", c1, d1, c2, d2)
	}
	if c1.opensPerPass == 0 || c1.bytesPerRecord == 0 || c1.allocsPerHit == 0 {
		t.Errorf("counts %+v: want every budget nonzero", c1)
	}
}

// TestTracedSweepPool runs a traced sweep pass on a two-worker pool, so
// the store wrapper and the span log are used from both workers at once
// (run with -race), and checks that every trial got a span and a result.
func TestTracedSweepPool(t *testing.T) {
	grids := sweepGrids(5)
	for i := range grids {
		grids[i].Ops, grids[i].KeyRange, grids[i].Workers = 20, 64, 2
	}
	s := &sweepCold{e: &env{scratch: t.TempDir(), seed: 5}, grids: grids}
	tr := &tracer{log: newSpanLog(), workload: "sweep-cold", labels: true}
	pr, err := s.pass(tr)
	if err != nil {
		t.Fatal(err)
	}
	if pr.failed != 0 {
		t.Fatalf("pass failed %d checks: %v", pr.failed, pr.notes)
	}
	if len(tr.trials) != pr.trials || len(tr.log.durations("sweep-cold", "lab.put")) != pr.trials {
		t.Errorf("%d trial records and %d put spans for %d trials", len(tr.trials), len(tr.log.durations("sweep-cold", "lab.put")), pr.trials)
	}
	if pr.busyNs <= 0 {
		t.Errorf("busy time %d, want the trials' span sum", pr.busyNs)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, by which run-to-run spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1.5, 2.5, 10, 4, 7, 3.3, 9.1}, [3]float64{2.5, 4, 9.1}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestProfileLayers profiles a JSON-bound loop and requires the decoder to
// charge most of it to the json layer.
func TestProfileLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	v := map[string][]int{}
	for i := 0; i < 200; i++ {
		v[strings.Repeat("k", i%7+1)+string(rune('a'+i%26))] = make([]int, 50)
	}
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
		b, _ := json.Marshal(v)
		_ = json.Unmarshal(b, &v)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("profile holds no samples")
	}
	total, _ := p.layerShares("cell")
	if total["json"] < 0.5 {
		t.Errorf("json share %.3f of a JSON-bound loop, want > 0.5 (shares %v)", total["json"], total)
	}
}
