package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/cache"
	"condaccess/internal/lab"
	"condaccess/internal/scenario"
)

// defaultSeed is the seed whose simulated statistics digests.json pins.
const defaultSeed = 1

// minPasses is the fewest measured passes a run makes, however short
// --seconds is.
const minPasses = 3

// env is what every workload of one run shares.
type env struct {
	scratch string // private scratch directory, removed when the run ends
	seed    uint64
	inject  string
}

// freshDir makes a new empty directory for a store.
func (e *env) freshDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(e.scratch, prefix+"-")
	if err != nil {
		return "", fmt.Errorf("creating store directory: %w", err)
	}
	return dir, nil
}

// workloadDef is one named workload: how to set it up (repeated setupReps
// times, the median reported as setup_s) and, through the job it returns,
// how to run one pass of it.
type workloadDef struct {
	name      string
	setupReps int
	setup     func(e *env) (job, error)
}

// job is a set-up workload. A pass runs the whole workload once, times the
// part a user waits for, then checks what it produced.
type job interface {
	pass(tr *tracer) (passResult, error)
	close()
}

// passResult is one pass: its measured wall time, the work it completed,
// how many of its checks failed, and the simulated results it produced
// (keyed by spec), which two passes of one seed must reproduce exactly.
// parts times pieces of the pass that every pass repeats, in the same
// order each time: each trial of a simulating pass, each re-render of a
// warm one.
type passResult struct {
	wall    time.Duration
	parts   []time.Duration
	trials  int
	simops  uint64
	failed  int
	notes   []string // what failed, for standard error
	digest  uint64
	results map[string]bench.Result
	busyNs  int64 // traced passes: sum of trial spans
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.notes) < 8 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

func workloads() []*workloadDef {
	return []*workloadDef{
		{name: "sweep-cold", setupReps: 7, setup: setupSweepCold},
		{name: "store-warm", setupReps: 5, setup: setupStoreWarm},
		{name: "churn-32t", setupReps: 7, setup: setupChurn},
	}
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads() {
		ns = append(ns, w.name)
	}
	return ns
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// digestResults hashes every simulated statistic of a set of results: the
// JSON form of each Result, in spec order.
func digestResults(results map[string]bench.Result) (uint64, error) {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		b, err := json.Marshal(results[k])
		if err != nil {
			return 0, fmt.Errorf("digesting results: %w", err)
		}
		buf.WriteString(k)
		buf.Write(b)
	}
	return fnv64(buf.Bytes()), nil
}

//go:embed digests.json
var pinnedDigestsJSON []byte

// checkDigest compares a workload's digest on the default seed with the one
// pinned in digests.json; other seeds have no pinned digest and pass.
func checkDigest(e *env, workload string, got uint64) bool {
	if e.seed != defaultSeed {
		return true
	}
	var pinned map[string]string
	if json.Unmarshal(pinnedDigestsJSON, &pinned) != nil {
		return false
	}
	want, err := strconv.ParseUint(pinned[workload], 16, 64)
	if err != nil {
		return false
	}
	if e.inject == "bad-digest" {
		want ^= 1
	}
	return got == want
}

// ---- sweep-cold ----------------------------------------------------------

// sweepOps is the operations per simulated thread of every sweep-cold trial.
const sweepOps = 1000

// sweepWorkers is the pool size of the sweep-cold grids. One worker leaves
// the host's second CPU to the collector: with two, a pass also waited on
// whichever CPU the shared host slowed, and the fastest pass of a run moved
// more from run to run (NOTES.md).
const sweepWorkers = 1

// sweepGrids is the Figure 1 job: list (1K keys) and bst (10K keys), each
// over {ca, rcu, hp} x 8 threads x updates {0, 100}, two trials a cell.
func sweepGrids(seed uint64) []bench.SweepConfig {
	grid := func(ds string, keys uint64) bench.SweepConfig {
		return bench.SweepConfig{
			DS: ds, Schemes: []string{"ca", "rcu", "hp"}, Threads: []int{8}, Updates: []int{0, 100},
			KeyRange: keys, Ops: sweepOps, Seed: seed, Trials: 2, Workers: sweepWorkers,
		}
	}
	return []bench.SweepConfig{grid("list", 1000), grid("bst", 10000)}
}

// gridTrials is the number of trials in a sweep configuration.
func gridTrials(cfg bench.SweepConfig) int {
	return len(cfg.Schemes) * len(cfg.Threads) * len(cfg.Updates) * cfg.Trials
}

type sweepCold struct {
	e     *env
	grids []bench.SweepConfig
}

// setupSweepCold builds the grids and warms the Go heap and the simulated
// machines' code and allocation paths with one short trial per cell (a
// twentieth of a cell's ops), so the first measured pass does not pay for
// them alone.
func setupSweepCold(e *env) (job, error) {
	grids := sweepGrids(e.seed)
	for _, g := range grids {
		for _, scheme := range g.Schemes {
			for _, u := range g.Updates {
				w := bench.Workload{DS: g.DS, Scheme: scheme, Threads: 8, KeyRange: g.KeyRange, UpdatePct: u, OpsPerThread: sweepOps / 20, Seed: e.seed}
				if _, err := bench.Run(w); err != nil {
					return nil, fmt.Errorf("sweep-cold warm-up: %w", err)
				}
			}
		}
	}
	return &sweepCold{e: e, grids: grids}, nil
}

func (s *sweepCold) close() {}

func (s *sweepCold) pass(tr *tracer) (passResult, error) {
	var pr passResult
	dir, err := s.e.freshDir("sweep")
	if err != nil {
		return pr, err
	}
	defer os.RemoveAll(dir)

	root := tr.open("pass", "", -1)
	t0 := time.Now()
	sp := tr.open("lab.open", "", root)
	st, err := lab.Open(dir)
	tr.close(sp)
	if err != nil {
		return pr, err
	}
	tap := newTap(st, tr)
	want := 0
	for _, cfg := range s.grids {
		want += gridTrials(cfg)
		cfg.Store = tap
		sp := tr.open("bench.sweep", cfg.DS, root)
		tap.parent = sp
		_, err := bench.Sweep(cfg, nil)
		tr.close(sp)
		if err != nil {
			pr.fail("%v", err)
		}
	}
	sp = tr.open("lab.close", "", root)
	err = st.Close()
	tr.close(sp)
	pr.wall = time.Since(t0)
	tr.close(root)
	if err != nil {
		return pr, fmt.Errorf("closing the sweep store: %w", err)
	}
	pr.busyNs = tr.takeBusy()
	for _, spec := range slices.Sorted(maps.Keys(tap.simTimes)) {
		pr.parts = append(pr.parts, tap.simTimes[spec])
	}

	// Checks: every trial ran (none was served by the fresh store) and
	// completed threads x ops/thread operations.
	pr.trials = want
	pr.results = tap.results
	if hits, _ := tap.counts(); hits != 0 {
		pr.fail("fresh store served %d hits", hits)
	}
	if len(pr.results) != want {
		pr.fail("%d of %d trials simulated", len(pr.results), want)
	}
	for _, r := range pr.results {
		pr.simops += r.Ops
		if r.Ops != uint64(r.W.Threads*r.W.OpsPerThread) {
			pr.fail("%s seed %d: %d ops, want %d", cellName(r.W), r.W.Seed, r.Ops, r.W.Threads*r.W.OpsPerThread)
		}
	}
	pr.digest, err = digestResults(pr.results)
	return pr, err
}

// ---- store-warm ----------------------------------------------------------

// storeGrid is the store-warm grid: 810 tiny trials (list x {ca, rcu, hp} x
// threads {1, 2} x updates {0, 50, 100} x 45 replicas, 40 ops/thread over 32
// keys) recorded with tail histograms, so that the envelopes carry what a
// real -tail figure stores while the simulator stays out of the picture.
func storeGrid(seed uint64) bench.SweepConfig {
	return bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu", "hp"}, Threads: []int{1, 2}, Updates: []int{0, 50, 100},
		KeyRange: 32, Ops: 40, Seed: seed, Trials: 45, RecordTail: true, Workers: 1,
	}
}

type storeWarm struct {
	e      *env
	cfg    bench.SweepConfig
	dir    string
	ref    []byte // the set-up render every pass must reproduce
	buf    bytes.Buffer
	trials int
	simops uint64
	digest uint64
	putB   float64 // bytes written per record while populating
	opens  uint64  // file opens of the last re-render's store handle
	cycles int     // re-renders so far
	keep   bool    // keep every served result, so passes can be compared
}

// setupStoreWarm populates a fresh store with the grid (simulating every
// trial) and renders the set-up copy of the tables and CSV.
func setupStoreWarm(e *env) (job, error) {
	s := &storeWarm{e: e, cfg: storeGrid(e.seed), trials: gridTrials(storeGrid(e.seed))}
	dir, err := e.freshDir("warm")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	st, err := lab.Open(dir)
	if err != nil {
		return nil, err
	}
	tap := newTap(st, nil)
	cfg := s.cfg
	cfg.Store = tap
	points, err := bench.Sweep(cfg, nil)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("populating the store: %w", err)
	}
	if _, misses := tap.counts(); misses != s.trials || len(tap.results) != s.trials {
		s.close()
		return nil, fmt.Errorf("populating the store: %d misses and %d results for %d trials", misses, len(tap.results), s.trials)
	}
	stats := st.Stats()
	s.putB = ratio(float64(stats.BytesWritten), float64(stats.Puts))
	for _, r := range tap.results {
		s.simops += r.Ops
	}
	if s.digest, err = digestResults(tap.results); err != nil {
		s.close()
		return nil, err
	}
	if err := s.render(points, nil, -1); err != nil {
		s.close()
		return nil, err
	}
	s.ref = append([]byte(nil), s.buf.Bytes()...)
	return s, nil
}

func (s *storeWarm) close() { os.RemoveAll(s.dir) }

// render writes what `cabench -store` prints for the grid into s.buf: one
// table per update rate, then the CSV.
func (s *storeWarm) render(points []bench.SweepPoint, tr *tracer, parent int) error {
	s.buf.Reset()
	sp := tr.open("render.table", "", parent)
	for _, u := range s.cfg.Updates {
		s.buf.WriteString(bench.FormatTable(points, u))
	}
	tr.close(sp)
	sp = tr.open("render.csv", "", parent)
	err := bench.WriteCSV(&s.buf, s.cfg.DS, points)
	tr.close(sp)
	return err
}

// warmCycles is how many re-renders one store-warm pass makes: one takes
// about 75 ms on a 2-vCPU host, too short a timing to hold steady.
const warmCycles = 4

// pass re-renders the store warmCycles times. Its wall is the sum of the
// cycles' timed parts; the checks of each cycle run outside them.
func (s *storeWarm) pass(tr *tracer) (passResult, error) {
	pr := passResult{trials: warmCycles * s.trials, simops: warmCycles * s.simops, digest: s.digest}
	root := tr.open("pass", "", -1)
	defer tr.close(root)
	for c := 0; c < warmCycles; c++ {
		if err := s.cycle(&pr, tr, root); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// cycle is one `cabench -store` re-render: Open, an all-hit Sweep, the
// tables and CSV, Close. It adds its timed part to pr.wall and checks that
// every trial was a hit, nothing was simulated or written, and the render is
// byte-identical to the set-up render. When results are kept, the pass keeps
// those its first cycle served.
func (s *storeWarm) cycle(pr *passResult, tr *tracer, root int) error {
	t0 := time.Now()
	sp := tr.open("lab.open", "", root)
	st, err := lab.Open(s.dir)
	tr.close(sp)
	if err != nil {
		return err
	}
	tap := newTap(st, tr)
	tap.keep = s.keep && pr.results == nil
	tap.forceMiss = s.e.inject == "force-miss" && s.cycles == 0
	cfg := s.cfg
	cfg.Store = tap
	sp = tr.open("bench.sweep", cfg.DS, root)
	tap.parent = sp
	points, serr := bench.Sweep(cfg, nil)
	tr.close(sp)
	var rerr error
	if serr == nil {
		rerr = s.render(points, tr, root)
	}
	sp = tr.open("lab.close", "", root)
	cerr := st.Close()
	tr.close(sp)
	d := time.Since(t0)
	pr.wall += d
	pr.parts = append(pr.parts, d)
	if cerr != nil {
		return fmt.Errorf("closing the warm store: %w", cerr)
	}
	if rerr != nil {
		return fmt.Errorf("rendering: %w", rerr)
	}
	if s.e.inject == "flip-render" && s.cycles == 0 && s.buf.Len() > 0 {
		s.buf.Bytes()[0] ^= 1
	}
	s.cycles++

	if serr != nil {
		pr.fail("%v", serr)
		return nil
	}
	stats := st.Stats()
	s.opens = stats.Opens
	hits, misses := tap.counts()
	if misses != 0 || stats.Misses != 0 || stats.Puts != 0 || hits != s.trials {
		pr.fail("warm cycle: %d hits, %d misses, %d store misses, %d puts for %d trials", hits, misses, stats.Misses, stats.Puts, s.trials)
	}
	if !bytes.Equal(s.buf.Bytes(), s.ref) {
		pr.fail("warm render differs from the set-up render")
	}
	if tap.keep {
		pr.results = tap.results
	}
	return nil
}

// ---- churn-32t -----------------------------------------------------------

// churnSeeds is how many seeds each scheme of churn-32t runs per pass.
const churnSeeds = 3

type churn struct {
	e     *env
	specs []bench.ScenarioWorkload
}

// churnSpecs binds the churn-drain preset to the lazy list with 32
// simulated threads, for ca and rcu over churnSeeds seeds, recording tail
// histograms and timelines.
func churnSpecs(seed uint64) ([]bench.ScenarioWorkload, error) {
	sc, err := scenario.Preset(scenario.PresetChurnDrain)
	if err != nil {
		return nil, err
	}
	var specs []bench.ScenarioWorkload
	for i := 0; i < churnSeeds; i++ {
		for _, scheme := range []string{"ca", "rcu"} {
			specs = append(specs, bench.ScenarioWorkload{
				DS: "list", Scheme: scheme, Threads: 32, KeyRange: 256,
				Seed:       seed + uint64(i)*1000003,
				RecordTail: true, RecordTimeline: true,
				Scenario: sc,
			})
		}
	}
	return specs, nil
}

// setupChurn binds the scenarios and warms the 32-thread machine's code and
// allocation paths with one short stationary trial per scheme.
func setupChurn(e *env) (job, error) {
	specs, err := churnSpecs(e.seed)
	if err != nil {
		return nil, err
	}
	for _, scheme := range []string{"ca", "rcu"} {
		w := bench.Workload{DS: "list", Scheme: scheme, Threads: 32, KeyRange: 256, UpdatePct: 100, OpsPerThread: 300, Seed: e.seed}
		if _, err := bench.Run(w); err != nil {
			return nil, fmt.Errorf("churn-32t warm-up: %w", err)
		}
	}
	return &churn{e: e, specs: specs}, nil
}

func (c *churn) close() {}

func churnCell(sw bench.ScenarioWorkload) string { return "churn-" + sw.Scheme }

func (c *churn) pass(tr *tracer) (passResult, error) {
	pr := passResult{results: map[string]bench.Result{}}
	var runner bench.Runner
	res := make([]bench.ScenarioResult, len(c.specs))
	errs := make([]error, len(c.specs))
	root := tr.open("pass", "", -1)
	t0 := time.Now()
	for i, sw := range c.specs {
		cell := churnCell(sw)
		tr.label(cell)
		sp := tr.open("bench.trial", cell, root)
		t := time.Now()
		res[i], errs[i] = runner.RunScenario(sw)
		pr.parts = append(pr.parts, time.Since(t))
		tr.closeTrial(sp, cell, res[i].Result)
	}
	pr.wall = time.Since(t0)
	tr.close(root)
	pr.busyNs = tr.takeBusy()

	pr.trials = len(c.specs)
	for i, sw := range c.specs {
		if errs[i] != nil {
			pr.fail("%s seed %d: %v", churnCell(sw), sw.Seed, errs[i])
			continue
		}
		pr.simops += res[i].Ops
		checkChurn(&pr, sw, res[i])
		pr.results[fmt.Sprintf("%s/%d", churnCell(sw), sw.Seed)] = res[i].Result
	}
	var err error
	pr.digest, err = digestResults(pr.results)
	return pr, err
}

// checkChurn checks that a churn trial completed its ops and that its
// phase segments, tail partitions and timeline add up to the trial totals.
func checkChurn(pr *passResult, sw bench.ScenarioWorkload, r bench.ScenarioResult) {
	name := fmt.Sprintf("%s seed %d", churnCell(sw), sw.Seed)
	var want uint64
	for _, ph := range sw.Scenario.Phases {
		want += uint64(ph.Ops * sw.Threads)
	}
	if r.Ops != want {
		pr.fail("%s: %d ops, want %d", name, r.Ops, want)
	}
	var ops, cycles, tailN uint64
	retries := r.Prefill.Retries
	cache := r.Prefill.Cache
	for _, seg := range r.Phases {
		ops += seg.Ops
		cycles += seg.Cycles
		retries += seg.Retries
		cache = addCache(cache, seg.Cache)
		if seg.Tail != nil {
			tailN += seg.Tail.Total.Count()
		}
	}
	if ops != r.Ops || cycles != r.Cycles || retries != r.Retries || !reflect.DeepEqual(cache, r.Cache) {
		pr.fail("%s: phase segments do not sum to the trial totals", name)
	}
	t := r.Tail
	if t == nil {
		pr.fail("%s: no tail record", name)
		return
	}
	n := t.Total.Count()
	if n != r.Ops || tailN != n ||
		t.Insert.Count()+t.Delete.Count()+t.Read.Count() != n ||
		t.Useful.Count()+t.Reclaim.Count()+t.Retry.Count() != n {
		pr.fail("%s: tail partitions do not sum to the trial's %d ops", name, r.Ops)
	}
	tl := r.Timeline
	if tl == nil {
		pr.fail("%s: no timeline", name)
		return
	}
	var tlOps uint64
	for i := range tl.Insert {
		tlOps += tl.Insert[i] + tl.Delete[i] + tl.Read[i]
	}
	if tlOps != r.Ops {
		pr.fail("%s: timeline holds %d ops, want %d", name, tlOps, r.Ops)
	}
}

// addCache adds two sets of cache counters field by field (every field of
// cache.Stats is a uint64 count).
func addCache(a, b cache.Stats) cache.Stats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}
	return a
}
