package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
)

// tracer is handed to a traced pass. It names the workload the pass
// belongs to, logs its spans, and collects every simulated trial's host
// time together with the trial's Result. A nil tracer records nothing, so
// untraced passes run the same code with no timing calls.
type tracer struct {
	log      *spanLog
	workload string
	labels   bool // label goroutines with the trial's cell for the CPU profile

	mu     sync.Mutex
	trials []trialRec
	busyNs int64 // sum of trial spans since the last takeBusy
}

// trialRec is one simulated trial seen by a traced pass.
type trialRec struct {
	cell string
	ns   int64
	res  bench.Result
}

func (t *tracer) open(name, cell string, parent int) int {
	if t == nil {
		return -1
	}
	return t.log.open(name, t.workload, cell, parent)
}

func (t *tracer) close(id int) {
	if t != nil && id >= 0 {
		t.log.close(id)
	}
}

// closeTrial ends a trial span and keeps its duration with the result.
func (t *tracer) closeTrial(id int, cell string, res bench.Result) {
	if t == nil || id < 0 {
		return
	}
	end := t.log.now()
	t.log.mu.Lock()
	sp := &t.log.spans[id]
	sp.End, sp.Cell = end, cell
	ns := sp.dur()
	t.log.mu.Unlock()
	t.mu.Lock()
	t.trials = append(t.trials, trialRec{cell: cell, ns: ns, res: res})
	t.busyNs += ns
	t.mu.Unlock()
}

// takeBusy returns the trial time recorded since the last call.
func (t *tracer) takeBusy() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.busyNs
	t.busyNs = 0
	return b
}

// label tags the calling goroutine's CPU profile samples with cell, so the
// profile splits host time by experiment cell.
func (t *tracer) label(cell string) {
	if t != nil && t.labels {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("cell", cell)))
	}
}

// cellName names a stationary trial's experiment cell, as in list-ca-u100.
func cellName(w bench.Workload) string {
	return fmt.Sprintf("%s-%s-u%d", w.DS, w.Scheme, w.UpdatePct)
}

// specCell names the cell of a canonical stationary trial spec.
func specCell(spec []byte) string {
	var w bench.Workload
	if json.Unmarshal(spec, &w) != nil {
		return "unknown"
	}
	return cellName(w)
}

// tapStore forwards the keyed trial path to a lab.Store and records what
// passes through it: hit and miss counts, every simulated trial's Result (a
// sweep hands back only the last trial of each point), and with a tracer
// the spans of each trial, its store lookup and its write-through. The
// interval from a missed lookup to the write-through of the same spec is
// the trial's simulation, and its host time is kept with or without a
// tracer. The other TrialStore methods are the lab.Store's
// own.
type tapStore struct {
	*lab.Store
	tr     *tracer
	parent int  // span that trial spans hang under
	keep   bool // also keep results served by hits

	mu        sync.Mutex
	forceMiss bool // report the next hit as a miss (fault injection)
	hits      int
	misses    int
	results   map[string]bench.Result     // by canonical spec
	inflight  map[*bench.PreparedSpec]int // trial span from a missed lookup to its write-through
	started   map[*bench.PreparedSpec]time.Time
	simTimes  map[string]time.Duration // by canonical spec: missed lookup to write-through
}

func newTap(st *lab.Store, tr *tracer) *tapStore {
	return &tapStore{
		Store: st, tr: tr, parent: -1,
		results:  map[string]bench.Result{},
		inflight: map[*bench.PreparedSpec]int{},
		started:  map[*bench.PreparedSpec]time.Time{},
		simTimes: map[string]time.Duration{},
	}
}

func (t *tapStore) LookupTrialSpec(ps *bench.PreparedSpec) (bench.Result, bool) {
	if t.tr != nil && t.tr.labels {
		t.tr.label(specCell(ps.Spec))
	}
	trial := t.tr.open("bench.trial", "", t.parent)
	lk := t.tr.open("lab.lookup", "", trial)
	res, ok := t.Store.LookupTrialSpec(ps)
	t.tr.close(lk)

	t.mu.Lock()
	defer t.mu.Unlock()
	if ok && t.forceMiss {
		ok, t.forceMiss = false, false
	}
	if !ok {
		t.misses++
		t.inflight[ps] = trial
		t.started[ps] = time.Now()
		return bench.Result{}, false
	}
	t.hits++
	t.tr.close(trial)
	if t.keep {
		t.results[string(ps.Spec)] = res
	}
	return res, true
}

func (t *tapStore) StoreTrialSpec(ps *bench.PreparedSpec, res bench.Result) error {
	end := time.Now()
	t.mu.Lock()
	trial, ok := t.inflight[ps]
	delete(t.inflight, ps)
	if start, ok := t.started[ps]; ok {
		t.simTimes[string(ps.Spec)] = end.Sub(start)
		delete(t.started, ps)
	}
	t.mu.Unlock()
	if !ok {
		trial = -1
	}
	put := t.tr.open("lab.put", "", trial)
	err := t.Store.StoreTrialSpec(ps, res)
	t.tr.close(put)
	t.tr.closeTrial(trial, cellName(res.W), res)

	t.mu.Lock()
	t.results[string(ps.Spec)] = res
	t.mu.Unlock()
	return err
}

// counts returns the hits and misses seen so far.
func (t *tapStore) counts() (hits, misses int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}
