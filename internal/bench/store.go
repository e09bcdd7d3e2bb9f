// The trial-store contract. A sweep is a cross product of fully
// deterministic trials, so a trial's complete serialized Result is a pure
// function of its spec and the engine version — the classic serving-cache
// shape. This file defines the pluggable store interface every Runner
// consults (the on-disk implementation lives in internal/lab), the canonical
// serialized spec forms that content-addressed keys are derived from, and
// the engine tag that scopes keys to one pinned engine output.

package bench

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"condaccess/internal/ds/hashtable"
	"condaccess/internal/jsonio"
)

// TrialStore is a read-through/write-through cache of complete trial
// results, consulted by Runner.Run and Runner.RunScenario before any
// simulation happens. A hit must return exactly the Result a cold run would
// produce (the stored value is the cold run's own serialized output —
// including the tail-latency histograms when the spec records latency), so
// warm and cold sweeps are byte-identical. Every method takes the trial's
// canonical spec, which the Runner marshals once per trial and passes to
// both the lookup and the write-through after a miss, so the store derives
// its content key once. Implementations must be safe for concurrent use:
// the executor (Exec) shares one store across its workers.
type TrialStore interface {
	// LookupTrialSpec returns the cached result of the stationary trial
	// whose canonical spec (TrialSpecBytes) is ps.Spec, memoizing the
	// derived key on ps.
	LookupTrialSpec(ps *PreparedSpec) (Result, bool)
	// StoreTrialSpec records res under ps (reusing ps.Key when set).
	StoreTrialSpec(ps *PreparedSpec, res Result) error
	// LookupScenarioSpec and StoreScenarioSpec are the scenario-trial
	// analogues over ScenarioSpecBytes.
	LookupScenarioSpec(ps *PreparedSpec) (ScenarioResult, bool)
	StoreScenarioSpec(ps *PreparedSpec, res ScenarioResult) error
}

// PreparedSpec carries one trial's canonical serialized spec, marshaled
// once per trial by the Runner, plus a memo slot for the store-derived
// content key. The store fills Key on the first lookup and reuses it in
// the write-through after a miss, so a cold trial costs one spec marshal
// and one key derivation instead of two of each.
type PreparedSpec struct {
	Spec []byte
	// Key is the store's memoized content address for Spec (opaque to the
	// harness; the lab store caches SHA-256(tag, kind, spec) here). Empty
	// until a store operation fills it.
	Key string
}

// storeSchema versions the JSON shape of stored results: Result,
// ScenarioResult and every type they carry. EngineTag digests it together
// with the goldens, which pin the simulator's output but not that shape
// (goldenSum hashes the values of Result's members, not their names). Bump
// it whenever the shape changes: a field added, removed, renamed or
// retyped, or a custom MarshalJSON format changed, such as latency.Hist's.
// A shape change also means updating the walks of stored results
// (walk.go, and the Walk methods of latency.Hist, latency.Tail and
// trace.Timeline), which write and read members by name in declaration
// order. Entries written before the bump then carry a foreign engine tag,
// so no lookup sees them and calab gc collects them.
// TestStoreSchemaTracksResultShape fails when the shape moves without a
// bump. Stores written before the constant existed count as schema 1.
// Schema 3 moved no result: it dropped the legacyQueueRead member from the
// scenario spec, so the scenario entries keyed with it read as foreign
// rather than as replicas of the same trials keyed without it.
const storeSchema = 3

// goldenPins embeds the golden checksum files that pin the engine's
// observable output, so the engine tag below tracks them automatically.
//
//go:embed testdata/golden.json testdata/golden_scenario.json
var goldenPins embed.FS

// EngineTag fingerprints the engine version a cached result was produced
// by: a digest of storeSchema and the embedded golden checksum files. The
// goldens pin every observable bit of the simulator's output, and any
// deliberate engine change regenerates them (-update-golden), so
// regenerating the goldens automatically invalidates every stale store
// entry; storeSchema does the same for a change to the stored result shape.
func EngineTag() string {
	h := sha256.New()
	fmt.Fprintf(h, "store schema %d\n", storeSchema)
	for _, name := range []string{"testdata/golden.json", "testdata/golden_scenario.json"} {
		b, err := goldenPins.ReadFile(name)
		if err != nil {
			// Unreachable: embed fails the build if the files are missing.
			panic(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// EffectiveBuckets resolves the bucket count that actually shapes a trial:
// zero for every structure but the hash table (the field is inert there),
// and the hash table's default when unset. Cell grouping uses this so
// tools that pass an explicit 128 and tools that pass 0 align.
func EffectiveBuckets(ds string, buckets int) int {
	if ds != "hash" {
		return 0
	}
	if buckets == 0 {
		return hashtable.DefaultBuckets
	}
	return buckets
}

// TrialSpecBytes returns the canonical serialized form of a stationary trial
// spec: the JSON encoding of the full Workload (every field participates in
// the content address — seed, check mode, cache geometry, SMR tuning, all of
// it), byte for byte what json.Marshal writes, fields in declaration order
// (Workload's walk in walk.go).
func TrialSpecBytes(w Workload) ([]byte, error) {
	// A static call keeps the Codec on the stack; jsonio.Append's indirect
	// one would move it to the heap, one allocation more per trial.
	c := jsonio.Codec{B: make([]byte, 0, 512)} // a spec is about 470 bytes
	w.walk(&c)
	return c.B, c.Err()
}

// ScenarioSpecBytes returns the canonical serialized form of a scenario
// trial spec, analogous to TrialSpecBytes: the JSON of the binding and the
// scenario. It stays on json.Marshal: the spec embeds the whole scenario,
// and a scenario trial simulates for milliseconds, so its encoding is not
// worth a writer of its own. A stationary trial is keyed on its Workload
// under a kind of its own.
func ScenarioSpecBytes(sw ScenarioWorkload) ([]byte, error) { return json.Marshal(sw) }
