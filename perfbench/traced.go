package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/trace"
)

// tracedPassPairs is how many untraced/traced pass pairs the traced run
// makes of each workload.
var tracedPassPairs = map[string]int{"sweep-cold": 3, "store-warm": 3, "churn-32t": 2}

// traced is the traced run. It measures every layer of all three workloads
// (the per-layer metrics are one fixed set, whichever workload is named)
// and profiles the named one. Each workload alternates untraced and traced
// passes: the traced ones must simulate exactly what the untraced ones do,
// and the ratio of their median walls is the tracing overhead.
func traced(e *env, named *workloadDef, stderr io.Writer) (*report, *spanLog, error) {
	log := newSpanLog()
	rep := newReport()
	var digests []byte
	var shares map[string]float64 // the named workload's CPU profile by layer
	for _, w := range workloads() {
		profiled := w.name == named.name
		tr := &tracer{log: log, workload: w.name, labels: profiled}
		j, err := w.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if s, ok := j.(*storeWarm); ok {
			s.keep = true
		}
		tp, err := tracedPasses(j, tr, tracedPassPairs[w.name], profiled)
		if err != nil {
			j.close()
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.attempted += tp.trials
		rep.failed += tp.failed
		for _, n := range tp.notes {
			fmt.Fprintf(stderr, "check failed: %s: %s\n", w.name, n)
		}
		digests = binary.LittleEndian.AppendUint64(digests, tp.digest)
		if !checkDigest(e, w.name, tp.digest) {
			fmt.Fprintf(stderr, "check failed: %s: digest %016x does not match the pinned one\n", w.name, tp.digest)
			rep.failed++
		}

		switch j := j.(type) {
		case *sweepCold:
			for _, g := range j.grids {
				for _, scheme := range g.Schemes {
					for _, u := range g.Updates {
						cell := fmt.Sprintf("%s-%s-u%d", g.DS, scheme, u)
						cellMetrics(rep, cell, scheme, u == 100, tr.cell(cell))
					}
				}
			}
			var busy []float64
			workers := min(sweepWorkers, runtime.GOMAXPROCS(0))
			for _, p := range tp.traced {
				busy = append(busy, ratio(float64(p.busyNs), float64(p.wall)*float64(workers)))
			}
			rep.set("bench.pool_busy_frac", median(busy), "frac")
			rep.set("lab.put_us_p50", median(log.durations(w.name, "lab.put"))/1e3, "us")
			rep.set("lab.close_ms", median(log.durations(w.name, "lab.close"))/1e6, "ms")
		case *storeWarm:
			if err := j.layerMetrics(rep, log); err != nil {
				j.close()
				return nil, nil, err
			}
		case *churn:
			for _, scheme := range []string{"ca", "rcu"} {
				cell := "churn-" + scheme
				cellMetrics(rep, cell, scheme, true, tr.cell(cell))
			}
			overhead, failed, err := j.sinkOverhead()
			if err != nil {
				j.close()
				return nil, nil, err
			}
			rep.failed += failed
			rep.set("trace.sink_overhead_ratio", overhead, "ratio")
		}
		j.close()

		rep.set("go.gc_cpu_frac."+w.name, ratio(tp.gc.gcCPU, tp.gc.totalCPU), "frac")
		rep.set("go.alloc_mb_per_trial."+w.name, ratio(float64(tp.gc.allocBytes)/1e6, float64(tp.trials)), "MB")
		rep.set("tracing.overhead_ratio."+w.name, ratio(tp.tracedWall, tp.untracedWall), "ratio")
		if tp.profile != nil {
			p, err := parseProfile(tp.profile)
			if err != nil {
				return nil, nil, err
			}
			var byCell map[string]map[string]float64
			shares, byCell = p.layerShares("cell")
			fmt.Fprintf(stderr, "%s CPU share outside the layers: %.3f\n", w.name, shares["other"])
			printCellShares(stderr, w.name, byCell)
		}
	}
	for _, l := range profLayers {
		rep.set("prof."+l+"_share", shares[l], "frac")
	}
	fmt.Fprintf(stderr, "simulated-statistics digest of all three workloads: %016x\n", fnv64(digests))
	return rep, log, nil
}

// tracedResult is what tracedPasses measured of one workload.
type tracedResult struct {
	traced       []passResult
	untracedWall float64 // median, seconds
	tracedWall   float64 // median, seconds
	trials       int
	failed       int
	notes        []string
	digest       uint64
	gc           goCounters // deltas over all passes
	profile      []byte     // CPU profile of all passes, when asked for
}

// tracedPasses runs a reference pass, then n untraced and n traced passes
// alternately, and checks each pass and that every pass simulated exactly
// the reference's results.
func tracedPasses(j job, tr *tracer, n int, profile bool) (tracedResult, error) {
	var out tracedResult
	var prof bytes.Buffer
	before := readGoCounters()
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, fmt.Errorf("starting the CPU profile: %w", err)
		}
	}
	// A first untraced pass warms the heap and is the reference every
	// later pass must reproduce; its wall is not counted.
	var passes, traced []passResult
	p, err := j.pass(nil)
	passes = append(passes, p)
	for i := 0; i < n && err == nil; i++ {
		if p, err = j.pass(nil); err == nil {
			passes = append(passes, p)
			p, err = j.pass(tr)
			traced = append(traced, p)
		}
	}
	after := readGoCounters()
	if profile {
		pprof.StopCPUProfile()
		out.profile = prof.Bytes()
	}
	pprof.SetGoroutineLabels(context.Background())
	if err != nil {
		return out, err
	}
	// The checks run after the profile stops, so it holds only the passes.
	ref := passes[0]
	var uw, tw []float64
	for i, p := range append(passes, traced...) {
		out.trials += p.trials
		out.failed += p.failed
		out.notes = append(out.notes, p.notes...)
		if i > 0 && !reflect.DeepEqual(p.results, ref.results) {
			out.failed++
			out.notes = append(out.notes, "a pass simulated different results than the reference pass")
		}
		switch {
		case i >= len(passes):
			tw = append(tw, p.wall.Seconds())
		case i > 0:
			uw = append(uw, p.wall.Seconds())
		}
	}
	out.traced = traced
	out.gc = goCounters{
		gcCPU:      after.gcCPU - before.gcCPU,
		totalCPU:   after.totalCPU - before.totalCPU,
		allocBytes: after.allocBytes - before.allocBytes,
	}
	out.untracedWall, out.tracedWall = median(uw), median(tw)
	out.digest = ref.digest
	return out, nil
}

// cell returns the traced trials of one experiment cell.
func (t *tracer) cell(name string) []trialRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rs []trialRec
	for _, r := range t.trials {
		if r.cell == name {
			rs = append(rs, r)
		}
	}
	return rs
}

// cellMetrics sets one experiment cell's metrics: host time per trial, per
// simulated op and per simulated cache access (medians over its trials),
// and — on update-heavy cells, where retire, scan and revocation happen —
// the simulated ratios, which repeat exactly for a seed.
func cellMetrics(rep *report, cell, scheme string, updates bool, rs []trialRec) {
	var ms, perOp, perAccess []float64
	var ops, accesses, misses, coherence, retries, creads, revocations, scans, freed float64
	for _, r := range rs {
		c := r.res.Cache
		acc := float64(c.L1Hits + c.L1Misses)
		ms = append(ms, float64(r.ns)/1e6)
		perOp = append(perOp, ratio(float64(r.ns), float64(r.res.Ops)))
		perAccess = append(perAccess, ratio(float64(r.ns), acc))
		ops += float64(r.res.Ops)
		accesses += acc
		misses += float64(c.L1Misses)
		coherence += float64(c.Invalidations + c.RemoteFwds + c.Upgrades)
		retries += float64(r.res.Retries)
		creads += float64(r.res.CA.CReads)
		revocations += float64(r.res.CA.Revocations)
		scans += float64(r.res.SMR.Scans)
		freed += float64(r.res.SMR.Freed)
	}
	rep.set("bench.trial_ms_p50."+cell, median(ms), "ms")
	rep.set("sim.host_ns_per_simop."+cell, median(perOp), "ns")
	rep.set("sim.host_ns_per_access."+cell, median(perAccess), "ns")
	if updates {
		rep.set("cache.l1_miss_ratio."+cell, ratio(misses, accesses), "frac")
		rep.set("cache.coherence_per_op."+cell, ratio(coherence, ops), "1/op")
		rep.set("ds.retries_per_op."+cell, ratio(retries, ops), "1/op")
	}
	if scheme == "ca" {
		rep.set("core.creads_per_op."+cell, ratio(creads, ops), "1/op")
		rep.set("core.revocations_per_op."+cell, ratio(revocations, ops), "1/op")
	} else if updates {
		rep.set("smr.scans_per_kop."+cell, ratio(scans*1000, ops), "1/kop")
		rep.set("smr.freed_per_scan."+cell, ratio(freed, scans), "count")
	}
}

// layerMetrics measures the store's read path and the renderers on the
// populated warm store: open, lookup, record read and envelope decode
// timings, the deterministic counts, and the render spans of the passes.
func (s *storeWarm) layerMetrics(rep *report, log *spanLog) error {
	const name = "store-warm"
	rep.set("lab.open_ms", median(log.durations(name, "lab.open"))/1e6, "ms")
	lookups, err := s.replayLookups(2)
	if err != nil {
		return err
	}
	rep.set("lab.lookup_us_p50", median(lookups)/1e3, "us")
	rep.set("lab.lookup_us_p99", percentile(lookups, 99)/1e3, "us")
	read, decode, err := s.readAndDecode(5)
	if err != nil {
		return err
	}
	rep.set("lab.read_us_p50", median(read)/1e3, "us")
	rep.set("lab.decode_us_p50", median(decode)/1e3, "us")
	c, err := s.counts()
	if err != nil {
		return err
	}
	rep.set("lab.opens_per_pass", c.opensPerPass, "count")
	rep.set("lab.bytes_per_record", c.bytesPerRecord, "B")
	rep.set("lab.allocs_per_hit", c.allocsPerHit, "count")
	rep.set("render.table_ms", median(log.durations(name, "render.table"))/1e6, "ms")
	rep.set("render.csv_ms", median(log.durations(name, "render.csv"))/1e6, "ms")
	return nil
}

// replayLookups times LookupTrialSpec over every spec of the grid, rounds
// times, on a fresh handle, and returns the nanoseconds of each call.
func (s *storeWarm) replayLookups(rounds int) ([]float64, error) {
	ws, err := bench.ShardWorkloads(s.cfg, 0, 1)
	if err != nil {
		return nil, err
	}
	specs := make([][]byte, len(ws))
	for i, w := range ws {
		if specs[i], err = bench.TrialSpecBytes(w); err != nil {
			return nil, err
		}
	}
	st, err := lab.Open(s.dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var ns []float64
	for r := 0; r < rounds; r++ {
		for _, spec := range specs {
			ps := &bench.PreparedSpec{Spec: spec}
			t0 := time.Now()
			_, ok := st.LookupTrialSpec(ps)
			d := time.Since(t0)
			if !ok {
				return nil, fmt.Errorf("lookup replay: a grid spec missed the populated store")
			}
			ns = append(ns, float64(d))
		}
	}
	return ns, nil
}

// readAndDecode times SpecEntries (every record read, its envelope parsed
// and its spec decoded), per entry, rounds times, and Decode of each
// entry's result once, in nanoseconds.
func (s *storeWarm) readAndDecode(rounds int) (read, decode []float64, err error) {
	st, err := lab.Open(s.dir)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	var entries []lab.SpecEntry
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		entries, err = st.SpecEntries()
		d := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		if len(entries) != s.trials {
			return nil, nil, fmt.Errorf("store holds %d entries, want %d", len(entries), s.trials)
		}
		read = append(read, float64(d)/float64(len(entries)))
	}
	for i := range entries {
		t0 := time.Now()
		_, err := entries[i].Decode()
		d := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		decode = append(decode, float64(d))
	}
	return read, decode, nil
}

// storeCounts are the deterministic budgets of the warm path: they repeat
// exactly for a seed, so a change that moves them moved the code path.
type storeCounts struct {
	opensPerPass   float64 // files the store handle of one re-render opens
	bytesPerRecord float64 // bytes written per record when populating
	allocsPerHit   float64 // heap allocations per trial served by a warm sweep
}

// counts measures the budgets; opensPerPass needs a pass to have run. The
// allocation count is rounded to whole allocations per hit: map growth
// depends on per-process hash seeds, so the raw total wobbles by a few
// allocations in a hundred thousand.
func (s *storeWarm) counts() (storeCounts, error) {
	st, err := lab.Open(s.dir)
	if err != nil {
		return storeCounts{}, err
	}
	cfg := s.cfg
	cfg.Store = st
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = bench.Sweep(cfg, nil)
	runtime.ReadMemStats(&m1)
	hits := st.Stats().Hits
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return storeCounts{}, err
	}
	return storeCounts{
		opensPerPass:   float64(s.opens),
		bytesPerRecord: s.putB,
		allocsPerHit:   math.Round(ratio(float64(m1.Mallocs-m0.Mallocs), float64(hits))),
	}, nil
}

// sinkOverhead runs every churn trial with a trace.Sink attached and
// detached, alternately, twice, and returns the attached/detached ratio of
// the summed median trial times (1 when the sink costs nothing), and how many attached trials
// simulated a different result than the detached one.
func (c *churn) sinkOverhead() (float64, int, error) {
	const rounds = 2
	var plain, sunk bench.Runner
	sink := &trace.Sink{}
	sunk.Trace = sink
	var on, off float64
	failed := 0
	for _, sw := range c.specs {
		var ton, toff []float64
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			a, err := plain.RunScenario(sw)
			toff = append(toff, time.Since(t0).Seconds())
			if err != nil {
				return 0, 0, err
			}
			sink.Reset()
			t0 = time.Now()
			b, err := sunk.RunScenario(sw)
			ton = append(ton, time.Since(t0).Seconds())
			if err != nil {
				return 0, 0, err
			}
			if sink.Len() == 0 || !reflect.DeepEqual(a, b) {
				failed++
			}
		}
		on += median(ton)
		off += median(toff)
	}
	return ratio(on, off), failed, nil
}
