package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestEngineTagIsStable(t *testing.T) {
	a, b := EngineTag(), EngineTag()
	if a != b {
		t.Fatalf("engine tag not deterministic: %q vs %q", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("engine tag %q has length %d, want 16", a, len(a))
	}
}

// The JSON shape of stored results, pinned under the storeSchema it was
// taken at. Re-pin both together when storeSchema is bumped.
const (
	pinnedSchema = 2
	pinnedShape  = "2fdff9695842c8f0"
)

// TestStoreSchemaTracksResultShape guards storeSchema. The goldens zero Tail
// and Timeline before hashing, so they cannot see a change to what a store
// entry holds; this digest of Result's and ScenarioResult's JSON shape can.
func TestStoreSchemaTracksResultShape(t *testing.T) {
	got := resultShape()
	if storeSchema != pinnedSchema {
		t.Fatalf("storeSchema is %d but the result shape was pinned under %d: re-pin pinnedSchema = %d, pinnedShape = %q",
			storeSchema, pinnedSchema, storeSchema, got)
	}
	if got != pinnedShape {
		t.Fatalf("the JSON shape of stored results changed (digest %s, pinned %s under storeSchema %d): bump storeSchema, re-pin, and update the one-pass result encoder and decoder (encode.go and decode.go, and the AppendJSON and ReadJSON methods they call) to write and read the new shape",
			got, pinnedShape, pinnedSchema)
	}
}

// resultShape digests the JSON shape of the stored result types: every
// field's name, json tag and kind, recursively, stopping at types that
// define their own MarshalJSON (their format is storeSchema's to track).
func resultShape() string {
	var b strings.Builder
	for _, t := range []reflect.Type{reflect.TypeFor[Result](), reflect.TypeFor[ScenarioResult]()} {
		writeShape(&b, t, map[reflect.Type]bool{})
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// writeShape appends t's shape to b. onPath holds the struct types being
// expanded, so a recursive type ends in a marker instead of looping.
func writeShape(b *strings.Builder, t reflect.Type, onPath map[reflect.Type]bool) {
	marshaler := reflect.TypeFor[json.Marshaler]()
	if t.Implements(marshaler) || reflect.PointerTo(t).Implements(marshaler) {
		fmt.Fprintf(b, "custom %s", t)
		return
	}
	fmt.Fprintf(b, "%s(", t.Kind())
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		writeShape(b, t.Elem(), onPath)
	case reflect.Array:
		fmt.Fprintf(b, "%d ", t.Len())
		writeShape(b, t.Elem(), onPath)
	case reflect.Map:
		writeShape(b, t.Key(), onPath)
		b.WriteString(" ")
		writeShape(b, t.Elem(), onPath)
	case reflect.Struct:
		if onPath[t] {
			b.WriteString("recursive")
			break
		}
		onPath[t] = true
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() && !f.Anonymous {
				continue
			}
			fmt.Fprintf(b, "%s %q ", f.Name, f.Tag.Get("json"))
			writeShape(b, f.Type, onPath)
			b.WriteString("; ")
		}
		delete(onPath, t)
	}
	b.WriteString(")")
}

func TestTrialSpecBytesCanonical(t *testing.T) {
	w := goldenWorkload("list", "ca")
	a, err := TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same workload serialized differently twice")
	}
	w.Seed++
	c, err := TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("seed change invisible in the canonical spec")
	}
}

// FuzzTrialSpecBytes holds TrialSpecBytes to json.Marshal: the canonical
// spec of a random Workload, whose strings the fuzzer picks, is
// json.Marshal's bytes. The seeds' strings hold quotes, backslashes, HTML
// characters, control bytes, U+2028 and U+2029, non-ASCII text and invalid
// UTF-8. CI fuzzes it:
//
//	go test ./internal/bench -run '^$' -fuzz=FuzzTrialSpecBytes -fuzztime=10s
func FuzzTrialSpecBytes(f *testing.F) {
	for i, name := range awkwardNames {
		f.Add(name, "inv\xffl\xc3id\x00", "para\u2029graph", uint64(i))
	}
	f.Add("list", "ca", "", uint64(0))
	f.Fuzz(func(t *testing.T, ds, scheme, dist string, seed uint64) {
		var w Workload
		randomize(reflect.ValueOf(&w).Elem(), rand.New(rand.NewSource(int64(seed))))
		w.DS, w.Scheme, w.Dist = ds, scheme, dist
		got, err := TrialSpecBytes(w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("TrialSpecBytes writes\n%s\njson.Marshal\n%s", got, want)
		}
	})
}

// TestScenarioSpecCarriesLegacyFlag: the Workload lowering's historical
// queue-read pair changes the executed op stream, so the canonical scenario
// spec must distinguish a lowered workload from the identical declarative
// scenario.
func TestScenarioSpecCarriesLegacyFlag(t *testing.T) {
	lowered := lowerWorkload(goldenWorkload("queue", "ca"))
	if !lowered.Spec().LegacyQueueRead {
		t.Fatal("lowered workload spec lost the legacy queue-read flag")
	}
	declarative := lowered
	declarative.legacyQueueRead = false
	a, err := ScenarioSpecBytes(lowered)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScenarioSpecBytes(declarative)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("legacy flag invisible in the canonical spec: lowered and declarative trials would collide")
	}
}

func TestEffectiveBuckets(t *testing.T) {
	for _, tc := range []struct {
		ds      string
		in, out int
	}{
		{"list", 128, 0}, // inert outside the hash table
		{"list", 0, 0},
		{"bst", 64, 0},
		{"hash", 0, 128}, // unset means the default geometry
		{"hash", 128, 128},
		{"hash", 64, 64},
	} {
		if got := EffectiveBuckets(tc.ds, tc.in); got != tc.out {
			t.Errorf("EffectiveBuckets(%s, %d) = %d, want %d", tc.ds, tc.in, got, tc.out)
		}
	}
}

// memStore is an in-memory TrialStore for harness-side integration tests,
// keyed by canonical spec and instrumented to observe how the Runner drives
// it: it memoizes a synthetic key on the PreparedSpec at lookup and records
// the key it sees again at store time.
type memStore struct {
	mu          sync.Mutex
	trials      map[string]Result
	scenarios   map[string]ScenarioResult
	lookups     int
	puts        int
	storeSawKey string
}

func newMemStore() *memStore {
	return &memStore{trials: map[string]Result{}, scenarios: map[string]ScenarioResult{}}
}

// lookup memoizes ps's key, as a content-addressed store would. The caller
// holds m.mu.
func (m *memStore) lookup(ps *PreparedSpec) {
	m.lookups++
	if ps.Key == "" {
		ps.Key = "memo:" + string(ps.Spec[:16])
	}
}

// put records the key the write-through saw. The caller holds m.mu.
func (m *memStore) put(ps *PreparedSpec) {
	m.puts++
	m.storeSawKey = ps.Key
}

func (m *memStore) LookupTrialSpec(ps *PreparedSpec) (Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookup(ps)
	res, ok := m.trials[string(ps.Spec)]
	return res, ok
}

func (m *memStore) StoreTrialSpec(ps *PreparedSpec, res Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.put(ps)
	m.trials[string(ps.Spec)] = res
	return nil
}

func (m *memStore) LookupScenarioSpec(ps *PreparedSpec) (ScenarioResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookup(ps)
	res, ok := m.scenarios[string(ps.Spec)]
	return res, ok
}

func (m *memStore) StoreScenarioSpec(ps *PreparedSpec, res ScenarioResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.put(ps)
	m.scenarios[string(ps.Spec)] = res
	return nil
}

// TestKeyedFastPathMemoizesAcrossLookupAndStore: the key the store
// memoized on the PreparedSpec at lookup must arrive intact at the
// write-through, on both the stationary and scenario paths, with one
// lookup per trial and one write per simulated trial.
func TestKeyedFastPathMemoizesAcrossLookupAndStore(t *testing.T) {
	st := newMemStore()
	r := Runner{Store: st}
	if _, err := r.Run(goldenWorkload("list", "ca")); err != nil {
		t.Fatal(err)
	}
	if st.lookups != 1 || st.puts != 1 {
		t.Fatalf("store traffic %d lookups / %d stores, want 1/1", st.lookups, st.puts)
	}
	if st.storeSawKey == "" || !bytes.HasPrefix([]byte(st.storeSawKey), []byte("memo:")) {
		t.Fatalf("write-through saw key %q; the lookup's memo was lost", st.storeSawKey)
	}

	// Warm re-run: pure lookup, no store, no re-memoization surprises.
	if _, err := r.Run(goldenWorkload("list", "ca")); err != nil {
		t.Fatal(err)
	}
	if st.lookups != 2 || st.puts != 1 {
		t.Fatalf("warm store traffic %d lookups / %d stores, want 2/1", st.lookups, st.puts)
	}

	// Scenario path mirrors the stationary one.
	st.storeSawKey = ""
	if _, err := r.RunScenario(lowerWorkload(goldenWorkload("queue", "ca"))); err != nil {
		t.Fatal(err)
	}
	if st.storeSawKey == "" {
		t.Fatal("scenario write-through lost the lookup's key memo")
	}
}

// TestUnmarshalableSpecFailsBeforeSimulating: a spec the canonical encoder
// rejects (here a NaN key shift, which only API callers can build) cannot
// be keyed, so a store-backed run must fail before it looks anything up or
// simulates, rather than at the write-through.
func TestUnmarshalableSpecFailsBeforeSimulating(t *testing.T) {
	sw := lowerWorkload(goldenWorkload("list", "ca"))
	sw.Scenario.Phases[0].KeyShift = math.NaN()
	st := newMemStore()
	r := Runner{Store: st}
	if _, err := r.RunScenario(sw); err == nil || !strings.Contains(err.Error(), "encoding canonical spec") {
		t.Fatalf("RunScenario err = %v, want the spec encoding error", err)
	}
	if st.lookups != 0 || st.puts != 0 {
		t.Fatalf("store traffic %d lookups / %d stores, want none", st.lookups, st.puts)
	}
}

// TestRunDoesNotDoubleCache: the stationary path keys on the Workload alone;
// it must not also record the lowered scenario under a second key.
func TestRunDoesNotDoubleCache(t *testing.T) {
	st := newMemStore()
	r := Runner{Store: st}
	if _, err := r.Run(goldenWorkload("list", "ca")); err != nil {
		t.Fatal(err)
	}
	if st.puts != 1 || len(st.trials) != 1 || len(st.scenarios) != 0 {
		t.Fatalf("one trial produced %d puts (%d trial / %d scenario entries), want exactly 1 trial entry",
			st.puts, len(st.trials), len(st.scenarios))
	}
}

// TestSweepStoreHitSkipsSimulation: a poisoned store entry must be returned
// verbatim — proof the simulator never ran for a warm cell.
func TestSweepStoreHitSkipsSimulation(t *testing.T) {
	st := newMemStore()
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca"}, Threads: []int{2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: 1, Store: st,
	}
	cold, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the cached result; a warm sweep must return the poison.
	spec, err := TrialSpecBytes(trialWorkload(cfg, pointSpec{Scheme: "ca", Threads: 2, UpdatePct: 50}, 0))
	if err != nil {
		t.Fatal(err)
	}
	poisoned := st.trials[string(spec)]
	poisoned.Throughput = 123456789
	st.trials[string(spec)] = poisoned
	warm, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].Throughput != 123456789 {
		t.Fatalf("warm sweep re-simulated instead of serving the store: throughput %v (cold %v)",
			warm[0].Throughput, cold[0].Throughput)
	}
}
