// Package lab is the experiment lab: persistent, content-addressed storage
// of complete trial results, replication statistics over them, and cross-run
// comparison.
//
// Every simulated trial is a pure function of its spec (the full Workload or
// ScenarioWorkload) and the engine version, so the lab caches whole results
// the way a serving system caches whole responses: the Store keys each trial
// by a SHA-256 digest of its canonical serialized spec scoped by
// bench.EngineTag() (a digest of the stored result schema and the golden
// checksum files that pin the engine's observable output — regenerating the
// goldens or bumping the schema invalidates every stale entry
// automatically), and stores the trial's own serialized result as the
// value, one checksummed record in an append-only segment file. Plugged
// into the trial executor (bench.Exec, which bench.Sweep runs on) or a
// bench.Runner through the bench.TrialStore interface, a warm store makes
// repeat sweeps near-free: identical cells are never simulated twice, and
// the warm run's output is byte-for-byte the cold run's.
//
// On top of the store sit the analysis layers: Cells groups a store's
// entries into experiment cells (same coordinates, any seed) and summarizes
// each with bench.Summarize — mean, spread, and Student-t 95% confidence
// intervals over the replicas — and Diff aligns the cells of two store
// snapshots into a speedup/regression report whose significance flag is
// overlap of the two confidence intervals. cmd/calab exposes all of it
// (inspect, diff, gc, export, verify, pack, merge).
package lab
