package bench

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestParallelSweepMatchesSequential is the determinism regression guard for
// the worker pool: a sweep run with Workers: N must reproduce the sequential
// path exactly — same points (deep-equal, including the embedded full
// Results), same report order, and byte-identical CSV output.
func TestParallelSweepMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		cfg  SweepConfig
	}{
		{"list-ca-ibr", SweepConfig{
			DS: "list", Schemes: []string{"ca", "ibr"},
			Threads: []int{1, 2, 4}, Updates: []int{0, 100},
			KeyRange: 64, Ops: 120, Seed: 11, Trials: 2,
		}},
		{"bst-hp-rcu", SweepConfig{
			DS: "bst", Schemes: []string{"hp", "rcu"},
			Threads: []int{2, 4}, Updates: []int{50},
			KeyRange: 128, Ops: 120, Seed: 23, Trials: 3, RecordLatency: true,
		}},
		{"hash-none-qsbr", SweepConfig{
			DS: "hash", Schemes: []string{"none", "qsbr"},
			Threads: []int{1, 3}, Updates: []int{10},
			KeyRange: 64, Ops: 100, Buckets: 16, Seed: 5, Trials: 1, Check: true,
		}},
	}
	workerCounts := []int{2, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.cfg
			seq.Workers = 1
			var seqOrder []SweepPoint
			seqPoints, err := Sweep(seq, func(p SweepPoint) { seqOrder = append(seqOrder, p) })
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				par := tc.cfg
				par.Workers = w
				var parOrder []SweepPoint
				parPoints, err := Sweep(par, func(p SweepPoint) { parOrder = append(parOrder, p) })
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seqPoints, parPoints) {
					t.Fatalf("workers=%d: points diverge from sequential\nseq: %+v\npar: %+v", w, seqPoints, parPoints)
				}
				if !reflect.DeepEqual(seqOrder, parOrder) {
					t.Fatalf("workers=%d: report order diverges from sequential", w)
				}
				var seqCSV, parCSV strings.Builder
				if err := WriteCSV(&seqCSV, tc.cfg.DS, seqPoints); err != nil {
					t.Fatal(err)
				}
				if err := WriteCSV(&parCSV, tc.cfg.DS, parPoints); err != nil {
					t.Fatal(err)
				}
				if seqCSV.String() != parCSV.String() {
					t.Fatalf("workers=%d: CSV output not byte-identical", w)
				}
			}
		})
	}
}

// TestParallelSweepErrorMatchesSequential checks the pool reports the same
// (first-in-sweep-order) error as the sequential loop, after reporting the
// same prefix of good points.
func TestParallelSweepErrorMatchesSequential(t *testing.T) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "nosuchscheme"},
		Threads: []int{1, 2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: 3,
	}
	seq := cfg
	seq.Workers = 1
	var seqReported int
	_, seqErr := Sweep(seq, func(SweepPoint) { seqReported++ })
	if seqErr == nil {
		t.Fatal("sequential sweep accepted a bogus scheme")
	}
	par := cfg
	par.Workers = 4
	var parReported int
	points, parErr := Sweep(par, func(SweepPoint) { parReported++ })
	if parErr == nil {
		t.Fatal("parallel sweep accepted a bogus scheme")
	}
	if points != nil {
		t.Fatalf("parallel sweep returned points alongside error: %v", points)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("errors diverge:\nseq: %v\npar: %v", seqErr, parErr)
	}
	if seqReported != parReported {
		t.Fatalf("reported prefix diverges: seq %d, par %d", seqReported, parReported)
	}
}

// TestRunMany checks order preservation and error propagation of the
// exported workload-list runner.
func TestRunMany(t *testing.T) {
	ws := []Workload{
		{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1},
		{DS: "stack", Scheme: "none", Threads: 1, KeyRange: 32, UpdatePct: 100, OpsPerThread: 60, Seed: 2},
		{DS: "queue", Scheme: "ibr", Threads: 3, KeyRange: 32, UpdatePct: 100, OpsPerThread: 60, Seed: 3},
	}
	seq, err := RunMany(ws, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMany(ws, len(ws), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("RunMany parallel results diverge from sequential")
	}
	for i, r := range par {
		if r.W.DS != ws[i].DS {
			t.Fatalf("result %d is for %q, want %q (order not preserved)", i, r.W.DS, ws[i].DS)
		}
	}
	ws[1].DS = "nosuchds"
	if _, err := RunMany(ws, len(ws), nil); err == nil {
		t.Fatal("RunMany swallowed a workload error")
	}
}

func TestPoolWorkersClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ req, jobs, want int }{
		{0, 10, 1},
		{-3, 10, 1},
		{1, 10, 1},
		{max + 7, 10, min(max, 10)},
		{2, 1, 1},
		{4, 0, 0},
	} {
		if got := poolWorkers(tc.req, tc.jobs); got != tc.want {
			t.Errorf("poolWorkers(%d, %d) = %d, want %d", tc.req, tc.jobs, got, tc.want)
		}
	}
}

// BenchmarkSweep measures the wall-clock effect of the worker pool on a
// multi-point sweep (the acceptance criterion's "measurably faster").
func BenchmarkSweep(b *testing.B) {
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu", "hp"},
		Threads: []int{2, 4, 8}, Updates: []int{0, 100},
		KeyRange: 256, Ops: 400, Seed: 7, Trials: 2,
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(map[bool]string{true: "sequential", false: "parallel"}[w == 1], func(b *testing.B) {
			c := cfg
			c.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
