package lab

import (
	"testing"

	"condaccess/internal/bench"
)

// benchSweepConfig is the store-benchmark grid: 540 trials (2 schemes x 2
// thread counts x 3 update mixes x 45 replicas) of a deliberately tiny
// simulated workload, so the store's filesystem work — not the simulator —
// dominates the measurement. BENCH_store.json records interleaved A/B runs
// on this grid.
func benchSweepConfig(st bench.TrialStore) bench.SweepConfig {
	return bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"}, Threads: []int{1, 2},
		Updates: []int{0, 50, 100}, KeyRange: 32, Ops: 40, Seed: 17, Trials: 45,
		Store: st,
	}
}

// benchSweepTrials is the grid's trial count.
const benchSweepTrials = 2 * 2 * 3 * 45

// BenchmarkSweepWarm measures a fully warm re-run: open the store, serve all
// 540 trials from it, close — an index load at Open and a map probe +
// ReadAt per trial.
func BenchmarkSweepWarm(b *testing.B) {
	dir := b.TempDir()
	st := openStore(b, dir)
	if _, err := bench.Sweep(benchSweepConfig(st), nil); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := openStore(b, dir)
		if _, err := bench.Sweep(benchSweepConfig(st), nil); err != nil {
			b.Fatal(err)
		}
		stats := st.Stats()
		if stats.Misses != 0 || stats.Hits != benchSweepTrials {
			b.Fatalf("warm run traffic %+v; the benchmark must not simulate", stats)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(stats.Opens), "opens/sweep")
		}
	}
}

// BenchmarkSweepCold measures the first run into an empty store: simulation
// plus the write path — 540 batched segment appends with a handful of
// fsyncs.
func BenchmarkSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		st := openStore(b, dir)
		if _, err := bench.Sweep(benchSweepConfig(st), nil); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func openStore(b *testing.B, dir string) *Store {
	b.Helper()
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	return st
}
