package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"condaccess/internal/cache"
	"condaccess/internal/jsonio"
	"condaccess/internal/latency"
	"condaccess/internal/trace"
)

// The golden-checksum suite pins the simulator's observable output. Every
// simulated field of each canonical workload's Result is fingerprinted
// (hashResult) and compared against testdata/golden.json. A change to
// scheduling order, cache bookkeeping, or allocator behaviour that moves
// any of them shows up here as a checksum mismatch. Regenerate
// deliberately with:
//
//	go test ./internal/bench -run TestGoldenResults -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json and golden_geometry.json from the current engine")

// goldenSchemes is every scheme, so a change to any baseline the paper
// compares CA against moves the goldens, and with them the engine tag that
// scopes store entries.
var goldenSchemes = Schemes()

// goldenWorkload is the canonical small trial for one structure/scheme cell:
// big enough to exercise prefill, contention, reclamation, and eviction, and
// small enough that the whole matrix runs in well under a second.
func goldenWorkload(ds, scheme string) Workload {
	return Workload{
		DS: ds, Scheme: scheme,
		Threads: 4, KeyRange: 400, UpdatePct: 50,
		OpsPerThread: 250, Buckets: 32,
		Seed:           42,
		FootprintEvery: 100,
		RecordLatency:  true,
	}
}

// goldenSum fingerprints every simulated field of a Result (hashResult).
func goldenSum(res Result) uint64 {
	h := fnv.New64a()
	hashResult(h, &res)
	return h.Sum64()
}

// hashResult writes every simulated field of res to w: the prefill size, op
// and cycle counts, throughput, retries, the cache, CA, SMR and memory
// statistics, the footprint series, and the stored JSON of the tail and the
// timeline when they were recorded. It leaves out W, the workload that asked
// for the trial, and Latency, the summary of Tail.Total under RecordLatency.
// None of those statistics has a String method, so %+v prints every member.
func hashResult(w io.Writer, res *Result) {
	fmt.Fprintf(w, "%d %d %d %v %d %+v %+v %+v %+v %+v\n",
		res.PrefillSize, res.Ops, res.Cycles, res.Throughput, res.Retries,
		res.Cache, res.CA, res.SMR, res.Mem, res.Footprint)
	hashRecords(w, res.Tail, res.Timeline)
}

// hashRecords writes the stored JSON of a window's tail and timeline, each
// under its own name, or nothing for one that was not recorded. Their walks
// write no float, so they cannot fail.
func hashRecords(w io.Writer, tail *latency.Tail, tl *trace.Timeline) {
	if tail != nil {
		b, _ := jsonio.Append([]byte("tail "), tail.Walk)
		w.Write(append(b, '\n'))
	}
	if tl != nil {
		b, _ := jsonio.Append([]byte("timeline "), tl.Walk)
		w.Write(append(b, '\n'))
	}
}

func TestGoldenResults(t *testing.T) {
	sums := map[string]string{}
	for _, ds := range Structures() {
		for _, scheme := range goldenSchemes {
			res, err := Run(goldenWorkload(ds, scheme))
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, scheme, err)
			}
			sums[ds+"/"+scheme] = fmt.Sprintf("%016x", goldenSum(res))
		}
	}

	checkGolden(t, filepath.Join("testdata", "golden.json"), sums, *updateGolden)
}

// goldenGeometry is one machine the golden matrix runs on: its thread count,
// the ops each thread runs, and its cache (nil for the default cache of that
// many cores).
type goldenGeometry struct {
	name         string
	threads, ops int
	cache        func(threads int) cache.Params
}

// workload is goldenWorkload(ds, scheme) on g's machine.
func (g goldenGeometry) workload(ds, scheme string) Workload {
	w := goldenWorkload(ds, scheme)
	w.Threads, w.OpsPerThread = g.threads, g.ops
	if g.cache != nil {
		w.Cache = g.cache(g.threads)
	}
	return w
}

// goldenGeometries are the non-default machines TestGoldenResultsGeometry
// pins. The default goldens barely evict from the 32 KiB L1. On the small L1
// a list trial makes ~100k L1 evictions, so every LRU victim choice — and
// every revocation of a tag on a victim — feeds the results. The SMT machine
// pins the shared-L1 paths: a write notifies the writer's siblings, and a
// lost line notifies every hyperthread of its core. The small L1 is 4-way
// because a 2-way L1 makes bst/ca exceed core.MaxSpuriousRetries, the
// paper's associativity limit. t64 runs the core limit, 64 threads on the
// default cache: a full run queue, and sharer sets that reach bit 63.
var goldenGeometries = []goldenGeometry{
	{"l1-4k4w-l2-32k8w", 4, 250, func(n int) cache.Params {
		p := cache.DefaultParams(n)
		p.L1Bytes, p.L1Assoc = 4<<10, 4
		p.L2Bytes, p.L2Assoc = 32<<10, 8
		return p
	}},
	{"smt2", 4, 250, func(n int) cache.Params {
		p := cache.DefaultParams(n)
		p.ThreadsPerCore = 2
		return p
	}},
	{"t64", 64, 40, nil},
}

// TestGoldenResultsGeometry is the golden matrix on goldenGeometries,
// checksummed against testdata/golden_geometry.json. -update-golden
// rewrites it together with golden.json.
func TestGoldenResultsGeometry(t *testing.T) {
	sums := map[string]string{}
	for _, g := range goldenGeometries {
		for _, ds := range Structures() {
			for _, scheme := range goldenSchemes {
				res, err := Run(g.workload(ds, scheme))
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", g.name, ds, scheme, err)
				}
				sums[g.name+"/"+ds+"/"+scheme] = fmt.Sprintf("%016x", goldenSum(res))
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_geometry.json"), sums, *updateGolden)
}

// TestCheckSimulatesTheSameTrial runs the golden matrix, on the default
// machine and on every golden geometry, with Check off and on: the checks
// only observe, so the two Results must be equal in every field but W.Check.
// Without Check the Conditional Access instructions record and read no
// allocation generation; with it they record one on every new tag and
// compare it on every re-cread and cwrite, so the pair is the differential
// between the two paths. One Runner runs both, so each checked trial reuses,
// through Machine.Reset, the machine the unchecked one ran on.
func TestCheckSimulatesTheSameTrial(t *testing.T) {
	base := goldenWorkload("", "")
	geoms := append([]goldenGeometry{{"default", base.Threads, base.OpsPerThread, nil}}, goldenGeometries...)
	var r Runner
	for _, g := range geoms {
		for _, ds := range Structures() {
			for _, scheme := range goldenSchemes {
				w := g.workload(ds, scheme)
				off, err := r.Run(w)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", g.name, ds, scheme, err)
				}
				w.Check = true
				on, err := r.Run(w)
				if err != nil {
					t.Fatalf("%s/%s/%s with Check: %v", g.name, ds, scheme, err)
				}
				on.W.Check = false
				if !reflect.DeepEqual(on, off) {
					t.Errorf("%s/%s/%s: Check moved the result:\n on: %+v\noff: %+v", g.name, ds, scheme, on, off)
				}
			}
		}
	}
}

// checkGolden compares a golden matrix's checksums against the file at
// path, or rewrites the file when update is set.
func checkGolden(t *testing.T, path string, sums map[string]string, update bool) {
	t.Helper()
	if update {
		data, err := json.MarshalIndent(sums, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden sums to %s", len(sums), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with the matching -update flag to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(sums) {
		t.Errorf("golden file has %d entries, matrix has %d", len(want), len(sums))
	}
	for key, sum := range sums {
		if want[key] == "" {
			t.Errorf("%s: no golden entry", key)
			continue
		}
		if sum != want[key] {
			t.Errorf("%s: result checksum %s != golden %s — engine output changed", key, sum, want[key])
		}
	}
}

// TestGoldenSumDiscriminates guards the fingerprint itself: materially
// different workloads must not collide, and the same workload must reproduce
// exactly.
func TestGoldenSumDiscriminates(t *testing.T) {
	a, err := Run(goldenWorkload("list", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(goldenWorkload("list", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	if goldenSum(a) != goldenSum(b) {
		t.Fatal("identical workloads produced different checksums")
	}
	w := goldenWorkload("list", "ca")
	w.Seed++
	c, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if goldenSum(a) == goldenSum(c) {
		t.Fatal("different seeds collided; checksum is not discriminating")
	}
}
