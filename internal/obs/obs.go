// Package obs is the out-of-band observability layer: it records where a
// run's wall-clock goes (per-trial phase spans, store flush/fsync timings),
// aggregates the spans into a run manifest (manifest.go), optionally streams
// machine-readable progress events as JSONL (events.go), and renders live
// progress on stderr (progress.go). The commands' flags, profiles and run
// session around the recorder live in internal/cli.
//
// Everything here is strictly observational. Recording changes no simulated
// result, no stdout byte, and no store content key: a run with observability
// enabled is byte-identical on stdout to one without it (pinned by CLI tests
// and the CI smoke step). Recording happens at trial and flush granularity,
// never on the per-op hot path, and the per-trial path — Start, End, Warm,
// Commit — performs no allocation (pinned by testing.AllocsPerRun).
//
// The package deliberately imports no other internal package: the engine tag
// and store counters are passed in by callers, so bench and lab can both
// depend on obs without a cycle.
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one timed span of a trial's execution, in the order the
// Runner passes through them.
type Phase int

const (
	// PhasePrepare covers spec validation and canonical marshaling — the
	// work needed before the store can even be consulted.
	PhasePrepare Phase = iota
	// PhaseLookup covers the trial-store read-through probe.
	PhaseLookup
	// PhaseSimulate covers the simulator run itself (compile, build,
	// prefill, measured phases). Zero on a warm store hit.
	PhaseSimulate
	// PhaseStore covers the trial-store write-through after a simulated
	// trial.
	PhaseStore

	// NumPhases sizes fixed per-trial span arrays.
	NumPhases
)

// phaseNames holds the long and short (progress display) names per phase.
var phaseNames = [NumPhases][2]string{
	PhasePrepare:  {"prepare", "prep"},
	PhaseLookup:   {"lookup", "look"},
	PhaseSimulate: {"simulate", "sim"},
	PhaseStore:    {"store", "put"},
}

// String returns the phase's name as used in manifests and calab output.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p][0]
}

// Spans accumulates nanoseconds per phase.
type Spans [NumPhases]int64

func (s *Spans) add(o Spans) {
	for i := range s {
		s[i] += o[i]
	}
}

// workerIdle is the WorkerRec state between trials.
const workerIdle int32 = -1

// WorkerRec is one worker's per-trial span recorder. A nil *WorkerRec is a
// valid no-op recorder, so instrumented code calls it unconditionally. The
// Start/End/Warm path touches only the worker's own fields (plus one atomic
// store for the live progress display); Commit takes the run recorder's
// mutex once per trial to fold the trial into the aggregates. Nothing on
// this path allocates.
type WorkerRec struct {
	r  *Rec
	id int

	state atomic.Int32 // Phase currently executing, or workerIdle

	// cur accumulates the in-flight trial; folded and cleared by Commit,
	// discarded by Abandon. Only the owning worker touches these.
	cur  Spans
	warm bool

	// Whole-run aggregates, guarded by r.mu (written under it in Commit,
	// read under it by the manifest snapshot).
	trials int
	warmN  int
	spans  Spans
}

// Start marks the beginning of phase p and returns its start time, which the
// caller hands back to End. On a nil recorder it returns the zero time.
func (w *WorkerRec) Start(p Phase) time.Time {
	if w == nil {
		return time.Time{}
	}
	w.state.Store(int32(p))
	return time.Now()
}

// End accumulates the span of phase p started at t0.
func (w *WorkerRec) End(p Phase, t0 time.Time) {
	if w == nil {
		return
	}
	w.cur[p] += int64(time.Since(t0))
}

// Warm marks the in-flight trial as served from the store (no simulation).
func (w *WorkerRec) Warm() {
	if w == nil {
		return
	}
	w.warm = true
}

// Commit folds the in-flight trial into the run aggregates under point
// index point (as returned by AddPoints) and clears the worker for the next
// trial.
func (w *WorkerRec) Commit(point int) {
	if w == nil {
		return
	}
	w.state.Store(workerIdle)
	r := w.r
	r.mu.Lock()
	if point >= 0 && point < len(r.points) {
		p := &r.points[point]
		p.trials++
		p.spans.add(w.cur)
		if w.warm {
			p.warm++
		}
	}
	w.trials++
	w.spans.add(w.cur)
	if w.warm {
		w.warmN++
	}
	r.done++
	if w.warm {
		r.warm++
	}
	r.maybeTrialsEventLocked()
	r.maybeProgressLocked(false)
	r.mu.Unlock()
	w.cur = Spans{}
	w.warm = false
}

// Abandon discards the in-flight trial (error paths): partial spans from a
// failed trial must not leak into the next trial's Commit on a reused
// worker.
func (w *WorkerRec) Abandon() {
	if w == nil {
		return
	}
	w.state.Store(workerIdle)
	w.cur = Spans{}
	w.warm = false
}

// pointAgg aggregates one sweep point's committed trials.
type pointAgg struct {
	trials int
	warm   int
	spans  Spans
}

// Config configures a run recorder. All outputs are optional: a Rec with
// none still aggregates (callers can snapshot via Manifest).
type Config struct {
	Tool      string   // producing command, e.g. "cabench"
	Args      []string // its raw argument vector, recorded in the manifest
	EngineTag string   // bench.EngineTag(), passed in to keep obs dependency-free
	Spec      any      // the full run config, marshaled into the manifest

	// ManifestPath, when non-empty, is where Close writes the manifest.
	// ManifestDir instead derives the path as <dir>/<runid>.json (the
	// runs/ directory next to a store). Path wins when both are set.
	ManifestPath string
	ManifestDir  string

	// Progress, when non-nil, receives the live progress display
	// (progress.go) — stderr in practice. Events, when non-nil, receives
	// the JSONL event log (events.go).
	Progress io.Writer
	Events   io.Writer

	// TraceOut and Timeline note the run's sim-time tracing outputs in the
	// manifest: the Chrome trace file the CLI wrote (-trace) and whether
	// windowed timelines were recorded (-timeline). Bookkeeping only — the
	// trace itself is produced by the bench/trace layers, out of band.
	TraceOut string
	Timeline bool

	// now overrides the clock in tests (progress rate limiting, ETA).
	now func() time.Time
}

// Rec aggregates one run: per-point and per-worker span rollups, warm-hit
// counts, store flush traffic, and the event/progress streams. A nil *Rec is
// a valid no-op recorder. Methods are safe for concurrent use by the sweep
// pool's workers.
type Rec struct {
	cfg   Config
	runID string
	start time.Time
	now   func() time.Time

	mu      sync.Mutex
	labels  []string
	points  []pointAgg
	planned int // trials expected across all points
	done    int
	warm    int
	workers []*WorkerRec

	store  *StoreRollup
	shards []ShardRollup

	prog   progressState
	events *eventLog

	closed bool
	err    error
}

// New creates a run recorder and, when an event writer is configured, emits
// the run_start event.
func New(cfg Config) *Rec {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	r := &Rec{
		cfg:   cfg,
		start: cfg.now(),
		now:   cfg.now,
		runID: newRunID(cfg.Tool, cfg.now()),
	}
	r.prog.init(cfg.Progress)
	if cfg.Events != nil {
		r.events = &eventLog{w: cfg.Events}
		r.events.emit(event{Ev: "run_start", T: r.start, Run: r.runID, Tool: cfg.Tool, Engine: cfg.EngineTag})
	}
	return r
}

// RunID returns the run's identifier (the manifest's base name under a
// store's runs/ directory).
func (r *Rec) RunID() string {
	if r == nil {
		return ""
	}
	return r.runID
}

// AddPoints declares a batch of sweep points, one label each, expecting
// trialsPerPoint committed trials per point, and returns the index of the
// first new point. Point indices are append-ordered across calls, so a tool
// running several sweeps (figures) accumulates them all in one manifest.
func (r *Rec) AddPoints(labels []string, trialsPerPoint int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.points)
	r.labels = append(r.labels, labels...)
	r.points = append(r.points, make([]pointAgg, len(labels))...)
	r.planned += len(labels) * trialsPerPoint
	return base
}

// Worker returns the recorder for worker i, creating it (and any lower
// indices) on first use. Each returned WorkerRec must only be used by one
// goroutine at a time.
func (r *Rec) Worker(i int) *WorkerRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.workers) <= i {
		w := &WorkerRec{r: r, id: len(r.workers)}
		w.state.Store(workerIdle)
		r.workers = append(r.workers, w)
	}
	return r.workers[i]
}

// PointStart records that point i is now at the head of the run's in-order
// reporting sequence. The trial executor (bench.Exec) calls
// PointStart/PointDone from its calling goroutine in point order — never
// from pool workers — so the event stream's point events are strictly
// sequential even when trials complete out of order.
func (r *Rec) PointStart(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events != nil && i >= 0 && i < len(r.labels) {
		r.events.emit(event{Ev: "point_start", T: r.now(), Point: ptr(i), Label: r.labels[i]})
	}
}

// PointDone records that point i has been merged and reported.
func (r *Rec) PointDone(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= 0 && i < len(r.points) {
		if r.events != nil {
			p := r.points[i]
			r.events.emit(event{
				Ev: "point_done", T: r.now(), Point: ptr(i), Label: r.labels[i],
				Trials: p.trials, Warm: p.warm,
			})
		}
	}
	r.maybeProgressLocked(false)
}

// StoreFlushed records one durable store flush (records published, bytes
// written) on the event stream; the manifest's store section comes from
// SetStore. Wired to lab.Store.OnFlush by the CLIs; called from whichever
// goroutine triggered the flush.
func (r *Rec) StoreFlushed(records, bytes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events != nil {
		r.events.emit(event{Ev: "store_flush", T: r.now(), Records: records, Bytes: bytes})
	}
}

// SetStore attaches the store's end-of-run counter rollup to the manifest.
func (r *Rec) SetStore(s StoreRollup) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = &s
}

// SetShards attaches the farm workers' per-shard rollups to the manifest.
func (r *Rec) SetShards(shards []ShardRollup) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shards = append([]ShardRollup(nil), shards...)
}

// Close finalizes the run: a last progress render, the run_done event, and
// the atomic manifest write (when a path or directory is configured). runErr
// is the run's outcome, recorded in the manifest — a failed run still gets a
// complete, parseable manifest or none at all, never a truncated one. Close
// is idempotent; only the first call does work.
func (r *Rec) Close(runErr error) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.err = runErr
	r.maybeProgressLocked(true)
	m := r.manifestLocked()
	if r.events != nil {
		ev := event{Ev: "run_done", T: r.now(), Run: r.runID, Trials: m.TrialsDone, Warm: m.WarmHits, WallNanos: m.WallNanos}
		if runErr != nil {
			ev.Error = runErr.Error()
		}
		r.events.emit(ev)
	}
	r.mu.Unlock()
	path := r.cfg.ManifestPath
	if path == "" && r.cfg.ManifestDir != "" {
		path = ManifestPath(r.cfg.ManifestDir, r.runID)
	}
	if path == "" {
		return nil
	}
	return writeManifest(path, m)
}

// Manifest snapshots the run's aggregates as they stand. Close uses the
// same snapshot for the written manifest.
func (r *Rec) Manifest() Manifest {
	if r == nil {
		return Manifest{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.manifestLocked()
}

// ptr is the *int helper for optional event fields (point 0 must not be
// omitted as a zero value).
func ptr(i int) *int { return &i }
