// Run manifests: the durable, machine-readable record of one run. A
// manifest is a single JSON document holding the run's identity (tool,
// version, engine tag, argument vector, host), its full configuration, and
// the timing rollups — total, per-point, and per-worker phase spans plus
// warm-hit counts and store flush traffic. Manifests are written atomically
// (temp file + rename), so a crashed or failed run leaves either a complete
// manifest or none — never a truncated one.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// SpanNanos is a phase-span rollup in manifest form. The fixed fields (not
// a map) keep the JSON deterministic and diffs trivial.
type SpanNanos struct {
	PrepareNanos  int64 `json:"prepareNanos"`
	LookupNanos   int64 `json:"lookupNanos"`
	SimulateNanos int64 `json:"simulateNanos"`
	StoreNanos    int64 `json:"storeNanos"`
}

// nanosOf converts an accumulated span array to its manifest form.
func nanosOf(s Spans) SpanNanos {
	return SpanNanos{
		PrepareNanos:  s[PhasePrepare],
		LookupNanos:   s[PhaseLookup],
		SimulateNanos: s[PhaseSimulate],
		StoreNanos:    s[PhaseStore],
	}
}

// Phase returns the span of one phase.
func (s SpanNanos) Phase(p Phase) int64 {
	switch p {
	case PhasePrepare:
		return s.PrepareNanos
	case PhaseLookup:
		return s.LookupNanos
	case PhaseSimulate:
		return s.SimulateNanos
	case PhaseStore:
		return s.StoreNanos
	}
	return 0
}

// Total returns the sum over all phases.
func (s SpanNanos) Total() int64 {
	var t int64
	for p := Phase(0); p < NumPhases; p++ {
		t += s.Phase(p)
	}
	return t
}

// HostInfo records the environment a run executed in.
type HostInfo struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// hostInfo snapshots the current process's environment.
func hostInfo() HostInfo {
	return HostInfo{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// PointRollup is one sweep point's committed-trial aggregate.
type PointRollup struct {
	Label  string `json:"label"`
	Trials int    `json:"trials"`
	Warm   int    `json:"warm"`
	SpanNanos
}

// WorkerRollup is one pool worker's committed-trial aggregate.
type WorkerRollup struct {
	Worker int `json:"worker"`
	Trials int `json:"trials"`
	Warm   int `json:"warm"`
	SpanNanos
}

// StoreRollup is the lab store's end-of-run counter snapshot, passed in by
// the CLI (obs does not import lab).
type StoreRollup struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	Opens          uint64 `json:"opens"`
	Flushes        uint64 `json:"flushes"`
	BytesWritten   uint64 `json:"bytesWritten"`
	FlushNanos     int64  `json:"flushNanos"`
	FsyncNanos     int64  `json:"fsyncNanos"`
	IndexLoadNanos int64  `json:"indexLoadNanos"`
}

// ShardRollup summarizes one farm worker process on the coordinator's
// manifest, distilled from the worker's own manifest (which remains the
// detailed record, under the shard store's runs/ directory).
type ShardRollup struct {
	Shard     int    `json:"shard"`
	RunID     string `json:"runId,omitempty"`
	Trials    int    `json:"trials"`
	Warm      int    `json:"warm"`
	WallNanos int64  `json:"wallNanos"`
	Error     string `json:"error,omitempty"`
	SpanNanos
}

// Manifest is the complete run record. The embedded SpanNanos is the
// whole-run phase rollup (the sum over Workers and, equivalently, over
// Points plus any trials committed outside a declared point).
type Manifest struct {
	RunID     string          `json:"runId"`
	Tool      string          `json:"tool"`
	Version   string          `json:"version"`
	EngineTag string          `json:"engineTag,omitempty"`
	Args      []string        `json:"args,omitempty"`
	Start     time.Time       `json:"start"`
	WallNanos int64           `json:"wallNanos"`
	Host      HostInfo        `json:"host"`
	Config    json.RawMessage `json:"config,omitempty"`
	Error     string          `json:"error,omitempty"`
	TraceOut  string          `json:"traceOut,omitempty"`
	Timeline  bool            `json:"timeline,omitempty"`

	TrialsPlanned int `json:"trialsPlanned"`
	TrialsDone    int `json:"trialsDone"`
	WarmHits      int `json:"warmHits"`
	SpanNanos

	Points  []PointRollup  `json:"points,omitempty"`
	Workers []WorkerRollup `json:"workers,omitempty"`
	Store   *StoreRollup   `json:"store,omitempty"`
	Shards  []ShardRollup  `json:"shards,omitempty"`
}

// manifestLocked builds the manifest snapshot. Caller holds r.mu.
func (r *Rec) manifestLocked() Manifest {
	m := Manifest{
		RunID:     r.runID,
		Tool:      r.cfg.Tool,
		Version:   Version(),
		EngineTag: r.cfg.EngineTag,
		Args:      r.cfg.Args,
		Start:     r.start,
		WallNanos: int64(r.now().Sub(r.start)),
		Host:      hostInfo(),
		TraceOut:  r.cfg.TraceOut,
		Timeline:  r.cfg.Timeline,

		TrialsPlanned: r.planned,
		TrialsDone:    r.done,
		WarmHits:      r.warm,
	}
	if r.err != nil {
		m.Error = r.err.Error()
	}
	if r.cfg.Spec != nil {
		if raw, err := json.Marshal(r.cfg.Spec); err == nil {
			m.Config = raw
		}
	}
	var total Spans
	for i, p := range r.points {
		m.Points = append(m.Points, PointRollup{
			Label: r.labels[i], Trials: p.trials, Warm: p.warm,
			SpanNanos: nanosOf(p.spans),
		})
	}
	for _, w := range r.workers {
		total.add(w.spans)
		m.Workers = append(m.Workers, WorkerRollup{
			Worker: w.id, Trials: w.trials, Warm: w.warmN,
			SpanNanos: nanosOf(w.spans),
		})
	}
	m.SpanNanos = nanosOf(total)
	if r.store != nil {
		s := *r.store
		m.Store = &s
	}
	m.Shards = append([]ShardRollup(nil), r.shards...)
	return m
}

// newRunID builds a sortable, human-scannable run identifier: UTC timestamp,
// tool name, and the start time's sub-second bits to de-collide runs started
// within the same second.
func newRunID(tool string, t time.Time) string {
	t = t.UTC()
	return fmt.Sprintf("%s-%s-%06d", t.Format("20060102T150405"), tool, t.Nanosecond()/1000)
}

// RunsDir returns the manifest directory conventionally kept next to a
// store: <storeDir>/runs.
func RunsDir(storeDir string) string { return filepath.Join(storeDir, "runs") }

// ManifestPath places a run's manifest inside dir: <dir>/<runID>.json.
// It is the inverse of the naming ListRuns expects.
func ManifestPath(dir, runID string) string {
	return filepath.Join(dir, runID+".json")
}

// writeManifest writes m to path atomically: temp file in the target
// directory, then rename. A reader never observes a partial manifest.
func writeManifest(path string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding manifest: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err == nil {
		if err = tmp.Close(); err == nil {
			if err = os.Rename(tmp.Name(), path); err == nil {
				return nil
			}
		}
	} else {
		tmp.Close()
	}
	os.Remove(tmp.Name())
	return fmt.Errorf("obs: writing manifest: %w", err)
}

// ReadManifest loads one manifest file.
func ReadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("obs: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("obs: parsing manifest %s: %w", path, err)
	}
	return m, nil
}

// ListRuns loads every parseable manifest under dir, sorted by start time
// (then run id). Unparsable files are skipped — a half-copied directory
// should not hide the sound runs.
func ListRuns(dir string) ([]Manifest, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: listing runs: %w", err)
	}
	var runs []Manifest
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		m, err := ReadManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		runs = append(runs, m)
	}
	sort.Slice(runs, func(i, j int) bool {
		if !runs[i].Start.Equal(runs[j].Start) {
			return runs[i].Start.Before(runs[j].Start)
		}
		return runs[i].RunID < runs[j].RunID
	})
	return runs, nil
}

// Version returns the module's version as stamped by the Go toolchain
// ("(devel)" for plain source builds).
func Version() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "(unknown)"
}
