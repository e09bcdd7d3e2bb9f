package bench

import (
	"fmt"
	"reflect"
	"testing"

	"condaccess/internal/latency"
)

// The tail-latency integration suite pins the streaming histogram pipeline
// against the exact-sort pipeline that the golden files fingerprint: on
// every golden workload the histogram's quantiles must bracket the exact
// percentiles within one bucket, and the per-kind / per-attribution counts
// must partition the op counts exactly, per phase and per trial.

// requireWithinOneBucket asserts est (a histogram quantile answer) is an
// upper bound for exact and that exact lies in est's bucket — the
// histogram's advertised error contract.
func requireWithinOneBucket(t *testing.T, what string, est, exact uint64) {
	t.Helper()
	if est < exact {
		t.Errorf("%s: histogram %d below exact %d", what, est, exact)
		return
	}
	if lo, _ := latency.BucketBounds(latency.BucketOf(est)); exact < lo {
		t.Errorf("%s: exact %d outside histogram bucket [%d..%d]", what, exact, lo, est)
	}
}

// requireTailConsistent checks one measured window's tail record against its
// exact-sort stats and op count.
func requireTailConsistent(t *testing.T, what string, tail *latency.Tail, exact LatencyStats, ops uint64) {
	t.Helper()
	if tail == nil {
		t.Errorf("%s: no tail record", what)
		return
	}
	if tail.Total.Count() != ops {
		t.Errorf("%s: tail samples %d != ops %d", what, tail.Total.Count(), ops)
	}
	if tail.Total.Count() != uint64(exact.Samples) {
		t.Errorf("%s: tail samples %d != exact samples %d", what, tail.Total.Count(), exact.Samples)
	}
	if kinds := tail.Insert.Count() + tail.Delete.Count() + tail.Read.Count(); kinds != ops {
		t.Errorf("%s: kind partition %d != ops %d", what, kinds, ops)
	}
	if attrs := tail.Useful.Count() + tail.Reclaim.Count() + tail.Retry.Count(); attrs != ops {
		t.Errorf("%s: attribution partition %d != ops %d", what, attrs, ops)
	}
	// Each reclaim-tagged op recorded exactly one pause span.
	if tail.Pause.Count() != tail.Reclaim.Count() {
		t.Errorf("%s: pause samples %d != reclaim-tagged ops %d", what, tail.Pause.Count(), tail.Reclaim.Count())
	}
	if ops == 0 {
		return
	}
	requireWithinOneBucket(t, what+" p50", tail.Total.Quantile(0.50), exact.P50)
	requireWithinOneBucket(t, what+" p90", tail.Total.Quantile(0.90), exact.P90)
	requireWithinOneBucket(t, what+" p99", tail.Total.Quantile(0.99), exact.P99)
	requireWithinOneBucket(t, what+" p99.9", tail.Total.Quantile(0.999), exact.P999)
	if tail.Total.Max() != exact.Max {
		t.Errorf("%s: tail max %d != exact max %d (max is tracked exactly)", what, tail.Total.Max(), exact.Max)
	}
	if tail.Total.Mean() != exact.MeanCycles {
		t.Errorf("%s: tail mean %v != exact mean %v", what, tail.Total.Mean(), exact.MeanCycles)
	}
}

// TestTailMatchesExactOnGoldens runs the full golden matrix and checks the
// histogram pipeline against the exact-sort pipeline the goldens pin — the
// pinning for the Tail fields that goldenSum deliberately excludes.
func TestTailMatchesExactOnGoldens(t *testing.T) {
	var runner Runner
	for _, ds := range Structures() {
		for _, scheme := range goldenSchemes {
			res, err := runner.Run(goldenWorkload(ds, scheme))
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, scheme, err)
			}
			requireTailConsistent(t, ds+"/"+scheme, res.Tail, res.Latency, res.Ops)
			if scheme == "ca" {
				// CA frees inline: no batches, so no op can be tagged as
				// having absorbed a reclamation pause.
				if res.Tail.Reclaim.Count() != 0 || res.Tail.Pause.Count() != 0 {
					t.Errorf("%s/ca: %d reclaim-tagged ops, %d pauses — CA has no reclamation batches",
						ds, res.Tail.Reclaim.Count(), res.Tail.Pause.Count())
				}
			}
		}
	}
}

// TestScenarioTailPerPhase runs the scenario golden cells and checks every
// phase's tail record, plus that the phase tails merge exactly into the
// trial tail (counts, sums, and extreme values all reconstruct).
func TestScenarioTailPerPhase(t *testing.T) {
	var runner Runner
	for _, sw := range scenarioGoldenCells() {
		sres, err := runner.RunScenario(sw)
		if err != nil {
			t.Fatalf("%s: %v", scenarioCellKey(sw), err)
		}
		key := scenarioCellKey(sw)
		requireTailConsistent(t, key+"/total", sres.Tail, sres.Latency, sres.Ops)
		var merged latency.Tail
		for i, seg := range sres.Phases {
			requireTailConsistent(t, fmt.Sprintf("%s/phase[%d]%s", key, i, seg.Name), seg.Tail, seg.Latency, seg.Ops)
			// Attribution reads each thread's own retry counter, so every
			// retry-tagged op accounts for at least one genuine retry in the
			// window — a shared-counter implementation (blaming ops for
			// other threads' retries) breaks this bound under contention.
			if seg.Tail.Retry.Count() > seg.Retries {
				t.Errorf("%s/phase[%d]%s: %d retry-tagged ops but only %d retries in the window",
					key, i, seg.Name, seg.Tail.Retry.Count(), seg.Retries)
			}
			merged.Merge(seg.Tail)
		}
		if merged.Total.Count() != sres.Tail.Total.Count() ||
			merged.Total.Sum() != sres.Tail.Total.Sum() ||
			merged.Total.Max() != sres.Tail.Total.Max() ||
			merged.Pause.Count() != sres.Tail.Pause.Count() {
			t.Errorf("%s: merged phase tails != trial tail", key)
		}
		if sres.Prefill.Tail != nil {
			t.Errorf("%s: prefill must not carry a tail record", key)
		}
	}
}

// TestSweepTailMergesTrials: a multi-trial sweep point's Tail summary covers
// the samples of every trial, and its exact-tracked max is the max over the
// trials' exact maxima.
func TestSweepTailMergesTrials(t *testing.T) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"}, Threads: []int{2},
		Updates: []int{100}, KeyRange: 64, Ops: 200, Seed: 3,
		Trials: 3, RecordLatency: true,
	}
	points, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		wantSamples := uint64(0)
		for trial := 0; trial < cfg.Trials; trial++ {
			res, err := Run(trialWorkload(cfg, pointSpec{Scheme: p.Scheme, Threads: p.Threads, UpdatePct: p.UpdatePct}, trial))
			if err != nil {
				t.Fatal(err)
			}
			wantSamples += res.Tail.Total.Count()
			if res.Tail.Total.Max() > p.Tail.Max {
				t.Errorf("%s trial %d: trial max %d exceeds merged point max %d",
					p.Scheme, trial, res.Tail.Total.Max(), p.Tail.Max)
			}
		}
		if p.Tail.Samples != wantSamples {
			t.Errorf("%s: point tail samples %d, want %d (sum over trials)", p.Scheme, p.Tail.Samples, wantSamples)
		}
		if p.Tail.Samples != uint64(cfg.Trials)*uint64(p.Threads)*uint64(cfg.Ops) {
			t.Errorf("%s: point tail samples %d, want trials*threads*ops", p.Scheme, p.Tail.Samples)
		}
	}
}

// TestTailOffByDefault: without RecordLatency nothing is recorded and no
// tail structures are allocated, on both execution paths.
func TestTailOffByDefault(t *testing.T) {
	w := goldenWorkload("list", "rcu")
	w.RecordLatency = false
	res, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tail != nil {
		t.Error("stationary: Tail non-nil without RecordLatency")
	}
	cells := scenarioGoldenCells()
	sw := cells[0]
	sw.RecordLatency = false
	sres, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Tail != nil {
		t.Error("scenario: Tail non-nil without RecordLatency")
	}
	for _, seg := range sres.Phases {
		if seg.Tail != nil {
			t.Error("scenario: phase Tail non-nil without RecordLatency")
		}
	}
}

// TestRecordTailOnlyMatchesFullRecording: a RecordTail-only run produces
// the identical Tail a full RecordLatency run does — recording is the same
// pass — while skipping the exact-sort pipeline entirely (Latency zero).
// Covers both execution paths and every phase tail.
func TestRecordTailOnlyMatchesFullRecording(t *testing.T) {
	w := goldenWorkload("list", "rcu")
	full, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	w.RecordLatency, w.RecordTail = false, true
	tailOnly, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if tailOnly.Latency != (LatencyStats{}) {
		t.Errorf("tail-only run filled exact-sort stats: %+v", tailOnly.Latency)
	}
	if !reflect.DeepEqual(tailOnly.Tail, full.Tail) {
		t.Error("tail-only run's Tail differs from the full recording's")
	}

	sw := scenarioGoldenCells()[0]
	sfull, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	sw.RecordLatency, sw.RecordTail = false, true
	sTailOnly, err := RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sTailOnly.Tail, sfull.Tail) {
		t.Error("scenario tail-only Tail differs from the full recording's")
	}
	for i := range sfull.Phases {
		if sTailOnly.Phases[i].Latency != (LatencyStats{}) {
			t.Errorf("phase %d: tail-only run filled exact-sort stats", i)
		}
		if !reflect.DeepEqual(sTailOnly.Phases[i].Tail, sfull.Phases[i].Tail) {
			t.Errorf("phase %d: tail-only Tail differs from the full recording's", i)
		}
	}
}
