package bench

import (
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/scenario"
	"condaccess/internal/smr"
	"condaccess/internal/trace"
)

// timelineScenario is the tracing tests' shared cell: churn-drain under a
// batching reclaimer, so the trace carries pause and scan events and the
// timeline carries nonzero pause cycles.
func timelineScenario(t *testing.T) ScenarioWorkload {
	t.Helper()
	sc, err := scenario.Preset(scenario.PresetChurnDrain)
	if err != nil {
		t.Fatal(err)
	}
	return ScenarioWorkload{
		DS: "list", Scheme: "rcu", Threads: 4, KeyRange: 128, Seed: 7,
		SMR:      smr.Options{ReclaimEvery: 30},
		Scenario: sc,
	}
}

// TestTracingObservational is the tentpole's acceptance property: attaching
// a trace sink (and recording timelines) must not perturb the simulation.
// The golden fingerprint of a traced run equals the untraced one, on both
// the stationary and scenario paths.
func TestTracingObservational(t *testing.T) {
	w := goldenWorkload("list", "rcu")
	base, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	traced := Runner{Trace: &trace.Sink{}}
	wt := w
	wt.RecordTimeline = true
	res, err := traced.Run(wt)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if res.Timeline == nil {
		t.Fatal("RecordTimeline run returned no timeline")
	}
	// The spec field and the timeline it asks for differ by design; the
	// simulated fields must not.
	res.W.RecordTimeline, res.Timeline = false, nil
	if goldenSum(base) != goldenSum(res) {
		t.Errorf("tracing perturbed the simulation:\nbase   %+v\ntraced %+v", base, res)
	}

	sw := timelineScenario(t)
	var plain Runner
	sbase, err := plain.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	swt := sw
	swt.RecordTimeline = true
	stress := Runner{Trace: &trace.Sink{}}
	sres, err := stress.RunScenario(swt)
	if err != nil {
		t.Fatal(err)
	}
	sres.Timeline = nil
	for i := range sres.Phases {
		sres.Phases[i].Timeline = nil
	}
	if scenarioGoldenSum(sbase) != scenarioGoldenSum(sres) {
		t.Error("scenario tracing perturbed the simulation")
	}
}

// TestTraceDeterministicBytes: two identical traced runs must render
// byte-identical trace files — the determinism the CI smoke step cmp-checks
// end to end.
func TestTraceDeterministicBytes(t *testing.T) {
	render := func() string {
		r := Runner{Trace: &trace.Sink{}}
		if _, err := r.RunScenario(timelineScenario(t)); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := r.Trace.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("two identical runs rendered different trace bytes")
	}
	if !strings.Contains(a, `"cat":"smr"`) {
		t.Error("rcu trace carries no reclamation events")
	}
	if !strings.Contains(a, `"cat":"phase"`) {
		t.Error("scenario trace carries no phase slices")
	}
}

// TestTimelineMatchesTotals cross-checks the timeline against the result's
// independently-counted aggregates on every structure under ca, hp and rcu:
// per-phase window sums equal the phase's op count and restart count, the
// trial timeline equals the merged phases, and pause cycles agree exactly
// with the tail histogram's pause sum (both use the same per-op delta
// attribution). Restarts are counted once, by sim.Ctx.CountRetry: the
// timeline sums each thread's own count per op, the segment reads the
// machine total, and no more ops are tagged retry than there were restarts.
func TestTimelineMatchesTotals(t *testing.T) {
	var r Runner
	for _, ds := range Structures() {
		for _, scheme := range goldenSchemes {
			sw := timelineScenario(t)
			sw.DS, sw.Scheme = ds, scheme
			sw.RecordTimeline = true
			sw.RecordTail = true
			res, err := r.RunScenario(sw)
			if err != nil {
				t.Fatal(err)
			}
			cell := ds + "/" + scheme
			if res.Timeline == nil {
				t.Fatalf("%s: no trial timeline", cell)
			}
			merged := &trace.Timeline{Window: res.Timeline.Window}
			for _, seg := range res.Phases {
				if seg.Timeline == nil {
					t.Fatalf("%s: phase %s has no timeline", cell, seg.Name)
				}
				if got, want := seg.Timeline.TotalOps(), uint64(seg.Ops); got != want {
					t.Errorf("%s: phase %s timeline ops %d, segment counted %d", cell, seg.Name, got, want)
				}
				var pause, retries uint64
				for _, row := range seg.Timeline.Rows() {
					pause += row.Pause
					retries += row.Retries
				}
				if want := seg.Tail.Pause.Sum(); pause != want {
					t.Errorf("%s: phase %s timeline pause cycles %d, tail histogram %d", cell, seg.Name, pause, want)
				}
				if retries != seg.Retries {
					t.Errorf("%s: phase %s timeline retries %d, segment counted %d", cell, seg.Name, retries, seg.Retries)
				}
				if seg.Tail.Retry.Count() > seg.Retries {
					t.Errorf("%s: phase %s has %d retry-tagged ops but only %d retries",
						cell, seg.Name, seg.Tail.Retry.Count(), seg.Retries)
				}
				merged.Merge(seg.Timeline)
			}
			if got, want := res.Timeline.TotalOps(), uint64(res.Ops); got != want {
				t.Errorf("%s: trial timeline ops %d, result counted %d", cell, got, want)
			}
			if !reflect.DeepEqual(merged, res.Timeline) {
				t.Errorf("%s: trial timeline is not the merge of the phase timelines", cell)
			}
			var pause uint64
			for _, row := range res.Timeline.Rows() {
				pause += row.Pause
			}
			if pause == 0 && scheme == "rcu" {
				t.Errorf("%s: batching reclaimer recorded zero pause cycles", cell)
			}
			if want := res.Tail.Pause.Sum(); pause != want {
				t.Errorf("%s: trial timeline pause cycles %d, tail histogram %d", cell, pause, want)
			}
		}
	}
}

// TestTimelineOffByDefault: a spec that doesn't ask for a timeline gets nil
// everywhere — no silent always-on cost.
func TestTimelineOffByDefault(t *testing.T) {
	res, err := Run(goldenWorkload("list", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Error("stationary result has a timeline without RecordTimeline")
	}
	var r Runner
	sres, err := r.RunScenario(timelineScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Timeline != nil {
		t.Error("scenario result has a timeline without RecordTimeline")
	}
	for _, seg := range sres.Phases {
		if seg.Timeline != nil {
			t.Errorf("phase %s has a timeline without RecordTimeline", seg.Name)
		}
	}
}

// TestSweepTimelineMerge: a sweep point's timeline is the window-by-window
// merge of its trials, and every trial's ops are accounted for.
func TestSweepTimelineMerge(t *testing.T) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"rcu"}, Threads: []int{2},
		Updates: []int{100}, KeyRange: 64, Ops: 150, Seed: 3, Trials: 2,
		RecordTimeline: true, TimelineWindow: 8192,
	}
	points, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1", len(points))
	}
	tl := points[0].Timeline
	if tl == nil {
		t.Fatal("sweep point has no timeline")
	}
	if tl.Window != 8192 {
		t.Errorf("window %d, want the configured 8192", tl.Window)
	}
	want := uint64(cfg.Trials * 2 * cfg.Ops) // trials x threads x ops/thread
	if got := tl.TotalOps(); got != want {
		t.Errorf("merged timeline ops %d, want %d", got, want)
	}
}

// TestSweepTraceRequiresSequential: sharing one sink across workers would
// interleave trials nondeterministically, so Sweep refuses it up front.
func TestSweepTraceRequiresSequential(t *testing.T) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca"}, Threads: []int{1},
		Updates: []int{0}, KeyRange: 64, Ops: 50, Seed: 1,
		Workers: 2, Trace: &trace.Sink{},
	}
	if _, err := Sweep(cfg, nil); err == nil {
		t.Fatal("Sweep accepted a shared trace sink with workers > 1")
	}
}

// TestTimelineWindowValidation: explicit windows below MinWindow are
// rejected on both the stationary and scenario paths.
func TestTimelineWindowValidation(t *testing.T) {
	w := goldenWorkload("list", "ca")
	w.TimelineWindow = 100
	if _, err := Run(w); err == nil {
		t.Error("Run accepted a sub-minimum timeline window")
	}
	sw := timelineScenario(t)
	sw.TimelineWindow = 100
	var r Runner
	if _, err := r.RunScenario(sw); err == nil {
		t.Error("RunScenario accepted a sub-minimum timeline window")
	}
}
