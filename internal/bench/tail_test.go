package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"condaccess/internal/latency"
	"condaccess/internal/trace"
)

// The tail-latency integration suite checks every measured window's Tail,
// and the Latency summarized from it, against an oracle the recorders do not
// share: the window's exact per-op latencies, rebuilt from the op events a
// trace.Sink records. On every golden workload the histogram's quantiles
// must bracket the exact percentiles within one bucket, its max and mean
// must equal the exact ones, and the per-kind / per-attribution counts must
// partition the op counts exactly, per phase and per trial.

// phaseLatencies returns the exact latency of every op of the one trial s
// traced, split by phase. Each op's event carries the start and duration
// measuredOp recorded, and each phase's event follows that phase's ops, so
// the op events before a phase event are that phase's.
func phaseLatencies(t *testing.T, s *trace.Sink) [][]uint64 {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string
			Dur uint64
		}
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var phases [][]uint64
	var ops []uint64
	for _, e := range doc.TraceEvents {
		switch e.Cat {
		case "op":
			ops = append(ops, e.Dur)
		case "phase":
			phases = append(phases, ops)
			ops = nil
		}
	}
	if len(ops) != 0 {
		t.Fatalf("%d op events after the last phase event", len(ops))
	}
	return phases
}

// exactStats is the oracle's view of a window: the sample of rank
// floor(p*(n-1)) among the sorted latencies for each percentile, and the
// exact count, max and mean.
func exactStats(lats []uint64) LatencyStats {
	if len(lats) == 0 {
		return LatencyStats{}
	}
	s := slices.Sorted(slices.Values(lats))
	q := func(p float64) uint64 { return s[int(p*float64(len(s)-1))] }
	var sum uint64
	for _, v := range s {
		sum += v
	}
	return LatencyStats{
		Samples: len(s),
		P50:     q(0.50), P90: q(0.90),
		P99: q(0.99), P999: q(0.999),
		Max:        s[len(s)-1],
		MeanCycles: float64(sum) / float64(len(s)),
	}
}

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

// requireTailConsistent checks one measured window of ops operations: its
// tail record against the window's traced latencies, and its Latency
// against the tail's summary.
func requireTailConsistent(t *testing.T, what string, tail *latency.Tail, lat LatencyStats, lats []uint64, ops uint64) {
	t.Helper()
	if tail == nil {
		t.Errorf("%s: no tail record", what)
		return
	}
	if uint64(len(lats)) != ops {
		t.Errorf("%s: trace holds %d ops, window %d", what, len(lats), ops)
	}
	if tail.Total.Count() != ops {
		t.Errorf("%s: tail samples %d != ops %d", what, tail.Total.Count(), ops)
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
	if sum := tail.Total.Summary(); lat != (LatencyStats{
		Samples: int(sum.Samples),
		P50:     sum.P50, P90: sum.P90,
		P99: sum.P99, P999: sum.P999,
		Max:        sum.Max,
		MeanCycles: sum.Mean,
	}) {
		t.Errorf("%s: Latency %+v is not the tail's summary %+v", what, lat, sum)
	}
	if ops == 0 {
		return
	}
	exact := exactStats(lats)
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

// TestTailMatchesExactOnGoldens runs the full golden matrix and checks each
// trial's tail against the latencies its trace recorded.
func TestTailMatchesExactOnGoldens(t *testing.T) {
	runner := Runner{Trace: &trace.Sink{}}
	for _, ds := range Structures() {
		for _, scheme := range goldenSchemes {
			runner.Trace.Reset()
			res, err := runner.Run(goldenWorkload(ds, scheme))
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, scheme, err)
			}
			lats := slices.Concat(phaseLatencies(t, runner.Trace)...)
			requireTailConsistent(t, ds+"/"+scheme, res.Tail, res.Latency, lats, res.Ops)
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
// phase's tail record and the trial's against the traced latencies, plus
// that the phase tails merge exactly into the trial tail (counts, sums, and
// extreme values all reconstruct).
func TestScenarioTailPerPhase(t *testing.T) {
	runner := Runner{Trace: &trace.Sink{}}
	for _, sw := range scenarioGoldenCells() {
		runner.Trace.Reset()
		sres, err := runner.RunScenario(sw)
		if err != nil {
			t.Fatalf("%s: %v", scenarioCellKey(sw), err)
		}
		key := scenarioCellKey(sw)
		phases := phaseLatencies(t, runner.Trace)
		if len(phases) != len(sres.Phases) {
			t.Fatalf("%s: trace holds %d phases, result %d", key, len(phases), len(sres.Phases))
		}
		requireTailConsistent(t, key+"/total", sres.Tail, sres.Latency, slices.Concat(phases...), sres.Ops)
		var merged latency.Tail
		for i, seg := range sres.Phases {
			requireTailConsistent(t, fmt.Sprintf("%s/phase[%d]%s", key, i, seg.Name), seg.Tail, seg.Latency, phases[i], seg.Ops)
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
// pass — while leaving Latency zero.
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
		t.Errorf("tail-only run filled Latency: %+v", tailOnly.Latency)
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
			t.Errorf("phase %d: tail-only run filled Latency", i)
		}
		if !reflect.DeepEqual(sTailOnly.Phases[i].Tail, sfull.Phases[i].Tail) {
			t.Errorf("phase %d: tail-only Tail differs from the full recording's", i)
		}
	}
}
