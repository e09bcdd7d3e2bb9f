package lab

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/scenario"
)

// prepared canonicalizes w the way a Runner does before it consults a
// store, so tests can address entries by Workload.
func prepared(t testing.TB, w bench.Workload) *bench.PreparedSpec {
	t.Helper()
	spec, err := bench.TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	return &bench.PreparedSpec{Spec: spec}
}

func testSweepConfig(store bench.TrialStore) bench.SweepConfig {
	return bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"},
		Threads: []int{1, 2}, Updates: []int{0, 100},
		KeyRange: 64, Ops: 120, Seed: 11, Trials: 2,
		Store: store,
	}
}

// TestWarmSweepByteIdentical is the subsystem's acceptance test: a sweep
// re-run against a warm store must execute zero simulator trials (no store
// misses, no store puts) and reproduce the cold run's points, table, and CSV
// byte for byte.
func TestWarmSweepByteIdentical(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSweepConfig(st)
	cold, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	jobs := uint64(2 * 2 * 2 * cfg.Trials) // schemes x threads x updates x trials
	if stats.Hits != 0 || stats.Misses != jobs || stats.Puts != jobs {
		t.Fatalf("cold run traffic %+v, want 0 hits / %d misses / %d puts", stats, jobs, jobs)
	}

	warm, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats = st.Stats()
	if stats.Hits != jobs || stats.Misses != jobs || stats.Puts != jobs {
		t.Fatalf("warm run traffic %+v, want %d hits and no new misses/puts (zero trials simulated)", stats, jobs)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm points diverge from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	for _, u := range cfg.Updates {
		if a, b := bench.FormatTable(cold, u), bench.FormatTable(warm, u); a != b {
			t.Fatalf("u=%d: warm table not byte-identical:\ncold:\n%s\nwarm:\n%s", u, a, b)
		}
	}
	var coldCSV, warmCSV strings.Builder
	if err := bench.WriteCSV(&coldCSV, cfg.DS, cold); err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteCSV(&warmCSV, cfg.DS, warm); err != nil {
		t.Fatal(err)
	}
	if coldCSV.String() != warmCSV.String() {
		t.Fatal("warm CSV not byte-identical to cold CSV")
	}
}

// TestWarmSweepParallelPath: a pooled sweep must hit the same store entries
// a one-worker sweep wrote, and reproduce its points exactly.
func TestWarmSweepParallelPath(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSweepConfig(st)
	cold, err := bench.Sweep(cfg, nil) // sequential cold fill
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Workers = runtime.GOMAXPROCS(0)
	warm, err := bench.Sweep(par, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Puts != got.Misses || got.Hits == 0 {
		t.Fatalf("parallel warm run traffic %+v, want pure hits", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("parallel warm points diverge from sequential cold points")
	}
}

// TestScenarioWarmRun: RunScenario must round-trip a full ScenarioResult —
// per-phase segments, prefill, latency percentiles — through the store.
func TestScenarioWarmRun(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Preset("read-burst")
	if err != nil {
		t.Fatal(err)
	}
	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "ca", Threads: 4, KeyRange: 128, Seed: 7,
		RecordLatency: true, Scenario: sc,
	}
	r := bench.Runner{Store: st}
	cold, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm scenario result diverges:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if got := st.Stats(); got.Hits != 1 || got.Misses != 1 || got.Puts != 1 {
		t.Fatalf("scenario traffic %+v, want 1 hit / 1 miss / 1 put", got)
	}
}

// TestTimelineWarmRoundTrip: the windowed timeline travels through the
// store envelope losslessly — a warm hit's timeline is deeply equal to the
// simulated one and re-marshals to identical bytes, on both the stationary
// and scenario paths.
func TestTimelineWarmRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 64, UpdatePct: 100,
		OpsPerThread: 150, Seed: 5, RecordTimeline: true, TimelineWindow: 8192,
	}
	r := bench.Runner{Store: st}
	cold, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Hits != 1 {
		t.Fatalf("store traffic %+v, want exactly one hit", got)
	}
	if warm.Timeline == nil || !reflect.DeepEqual(cold.Timeline, warm.Timeline) {
		t.Fatalf("warm timeline diverges:\ncold: %+v\nwarm: %+v", cold.Timeline, warm.Timeline)
	}
	cb, err := json.Marshal(cold.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(warm.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(wb) {
		t.Fatalf("warm timeline bytes diverge:\ncold: %s\nwarm: %s", cb, wb)
	}

	sc, err := scenario.Preset(scenario.PresetChurnDrain)
	if err != nil {
		t.Fatal(err)
	}
	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 64, Seed: 5,
		RecordTimeline: true, Scenario: sc,
	}
	scold, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if swarm.Timeline == nil || !reflect.DeepEqual(scold.Timeline, swarm.Timeline) {
		t.Fatal("warm scenario trial timeline diverges")
	}
	if len(swarm.Phases) != len(scold.Phases) {
		t.Fatal("phase count diverges")
	}
	for i := range scold.Phases {
		if !reflect.DeepEqual(scold.Phases[i].Timeline, swarm.Phases[i].Timeline) {
			t.Errorf("phase %s timeline diverges", scold.Phases[i].Name)
		}
	}
}

// TestRunManyWarm: the workload-list pool must be cacheable too.
func TestRunManyWarm(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws := []bench.Workload{
		{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1},
		{DS: "stack", Scheme: "none", Threads: 1, KeyRange: 32, UpdatePct: 100, OpsPerThread: 60, Seed: 2},
	}
	cold, err := bench.Exec{Workers: 2, Store: st}.RunMany(ws, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := bench.Exec{Workers: 1, Store: st}.RunMany(ws, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm RunMany results diverge from cold")
	}
	if got := st.Stats(); got.Hits != 2 || got.Puts != 2 {
		t.Fatalf("RunMany traffic %+v, want 2 hits / 2 puts", got)
	}
}

// TestSpecsKeySeparately: any spec difference — even just the seed — must
// address a different entry.
func TestSpecsKeySeparately(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	if _, err := r.Run(w); err != nil {
		t.Fatal(err)
	}
	w2 := w
	w2.Seed++
	if _, ok := st.LookupTrialSpec(prepared(t, w2)); ok {
		t.Fatal("seed change still hit the original entry")
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	if entries[0].Kind != KindTrial || entries[0].Workload.Seed != 1 {
		t.Fatalf("decoded entry mismatch: %+v", entries[0])
	}
}

// TestCorruptionIsAMissAndVerifyReportsIt: a flipped payload byte must fail
// the fingerprint check — lookups treat the entry as cold and re-simulation
// heals it, and Verify names the defect until a rewrite drops the
// superseded record.
func TestCorruptionIsAMissAndVerifyReportsIt(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	res, err := bench.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the result payload without breaking the JSON or
	// the result's shape, so only the fingerprint can tell.
	corrupt := strings.Replace(string(good), `"Seed":1,`, `"Seed":7,`, 1)
	if corrupt == string(good) {
		t.Fatal("corruption did not apply; result layout changed?")
	}
	plantEntry(t, st, w, corrupt, payloadSum(good))

	if _, ok := st.LookupTrialSpec(prepared(t, w)); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	sound, problems, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sound != 0 || len(problems) != 1 {
		t.Fatalf("verify: %d sound, %d problems; want 0/1", sound, len(problems))
	}
	if !strings.Contains(problems[0].Reason, "fingerprint") {
		t.Fatalf("problem reason %q does not name the fingerprint", problems[0].Reason)
	}

	// Re-running heals the lookup; the bad record stays behind its
	// replacement until Pack rewrites the segments.
	repaired, err := (&bench.Runner{Store: st}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, repaired) {
		t.Fatal("repaired result diverges from original")
	}
	if got, ok := st.LookupTrialSpec(prepared(t, w)); !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("re-run did not heal the lookup (hit %v)", ok)
	}
	if sound, problems, _ = st.Verify(); sound != 1 || len(problems) != 1 {
		t.Fatalf("after re-run: %d sound, %d problems; want 1/1", sound, len(problems))
	}
	if _, err := st.Pack(); err != nil {
		t.Fatal(err)
	}
	if sound, problems, _ = st.Verify(); sound != 1 || len(problems) != 0 {
		t.Fatalf("after pack: %d sound, %d problems; want 1/0", sound, len(problems))
	}
}

// TestGCRemovesForeignTags: entries written under another engine tag are
// unreachable and must be collected; current-tag entries stay.
func TestGCRemovesForeignTags(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	res, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	// A second handle pinned to a stale engine tag writes a foreign entry.
	old, err := openTagged(dir, "0000deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.StoreTrialSpec(prepared(t, w), res); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if keys, err := st.Keys(); err != nil || len(keys) != 2 {
		t.Fatalf("keys = %v (err %v); the foreign-tag entry must not share the current entry's key", keys, err)
	}

	removed, kept, err := st.GC(false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || kept != 1 {
		t.Fatalf("gc removed %d kept %d, want 1/1", removed, kept)
	}
	if _, ok := st.LookupTrialSpec(prepared(t, w)); !ok {
		t.Fatal("gc removed the current-tag entry")
	}

	removed, kept, err = st.GC(true)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || kept != 0 {
		t.Fatalf("gc -all removed %d kept %d, want 1/0", removed, kept)
	}
}

// TestOldTagStoreInvisibleAndCollected: every store written before the
// store schema joined the engine tag carries the tag below, whatever its
// results hold — here tail-recording trials stored without a Tail, which
// the Runner once re-simulated as stale. A current handle must miss all of
// them, re-simulate them exactly, count them as foreign-engine (as calab
// inspect does), and GC must remove them while keeping the current entries.
func TestOldTagStoreInvisibleAndCollected(t *testing.T) {
	const oldTag = "7b0c1eef028dbd71"
	dir := t.TempDir()
	cfg := bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"}, Threads: []int{2}, Updates: []int{50},
		KeyRange: 32, Ops: 60, Seed: 5, Trials: 2, RecordTail: true,
	}
	ws, err := bench.ShardWorkloads(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	old, err := openTagged(dir, oldTag)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		res, err := bench.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		res.Tail = nil
		if err := old.StoreTrialSpec(prepared(t, w), res); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Tag() == oldTag {
		t.Fatal("the engine tag did not move with the store schema")
	}
	for _, w := range ws {
		if _, ok := st.LookupTrialSpec(prepared(t, w)); ok {
			t.Fatalf("seed %d: old-tag entry visible to a current handle", w.Seed)
		}
	}

	want, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	got, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep over the old-tag store diverges from a storeless sweep")
	}
	if s := st.Stats(); s.Hits != 0 || s.Puts != uint64(len(ws)) {
		t.Fatalf("sweep traffic %+v, want every trial re-simulated and stored", s)
	}

	entries, err := st.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	foreign := 0
	for _, e := range entries {
		if e.Tag != st.Tag() {
			foreign++
		}
	}
	if foreign != len(ws) || len(entries) != 2*len(ws) {
		t.Fatalf("%d entries, %d foreign-engine; want %d of each tag", len(entries), foreign, len(ws))
	}

	removed, kept, err := st.GC(false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(ws) || kept != len(ws) {
		t.Fatalf("gc removed %d kept %d, want %d / %d", removed, kept, len(ws), len(ws))
	}
	warm, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) || st.Stats().Hits != uint64(len(ws)) {
		t.Fatalf("current entries lost by gc (traffic %+v)", st.Stats())
	}
}

// TestOpenExisting: read-only consumers must fail loudly on a mistyped
// path instead of materializing an empty store there.
func TestOpenExisting(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nosuchstore")
	if _, err := OpenExisting(missing); err == nil {
		t.Fatal("nonexistent store opened")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("OpenExisting materialized the missing store")
	}
	if _, err := Open(missing); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenExisting(missing); err != nil {
		t.Fatalf("existing store refused: %v", err)
	}
}

// TestEngineTagScopesLookups: a handle with a different tag must not see
// entries written under the current tag.
func TestEngineTagScopesLookups(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	if _, err := r.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	other, err := openTagged(dir, "ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := other.LookupTrialSpec(prepared(t, w)); ok {
		t.Fatal("entry visible across engine tags")
	}
}

// TestTailSurvivesStoreEnvelope: the tail-latency histograms (per-kind and
// per-attribution partitions, pause distribution, sparse bucket arrays)
// round-trip through the serialized envelope exactly, on both the stationary
// and scenario paths — a warm hit reproduces the cold run's whole Tail.
func TestTailSurvivesStoreEnvelope(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	w := bench.Workload{
		DS: "list", Scheme: "rcu", Threads: 4, KeyRange: 64,
		UpdatePct: 100, OpsPerThread: 300, Seed: 9, RecordLatency: true,
	}
	cold, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Tail == nil || cold.Tail.Pause.Count() == 0 {
		t.Fatal("cold rcu run recorded no reclamation pauses; workload too small to exercise the envelope")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm result (incl. Tail) diverges from cold")
	}

	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "hp", Threads: 4, KeyRange: 64, Seed: 9,
		RecordLatency: true,
		Scenario: scenario.Scenario{
			Name: "tail-envelope",
			Phases: []scenario.Phase{
				{Name: "churn", Ops: 200, Weights: scenario.Weights{Insert: 50, Delete: 50}},
				{Name: "read", Ops: 100, Weights: scenario.Weights{Read: 1}},
			},
		},
	}
	scold, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if scold.Tail == nil || scold.Phases[0].Tail == nil {
		t.Fatal("scenario cold run carries no tail records")
	}
	if !reflect.DeepEqual(scold, swarm) {
		t.Fatalf("warm scenario result (incl. per-phase Tails) diverges from cold")
	}
}

// TestEnvelopeResultIsLast pins the layout parseEnvelope relies on:
// json.Marshal writes an envelope compactly, fields in declaration order,
// with the result member last. A field added after Result (or between the
// head members) fails here instead of turning every lookup into a miss.
func TestEnvelopeResultIsLast(t *testing.T) {
	env := envelope{
		Tag: "0123abcd", Kind: KindScenario,
		Spec:   json.RawMessage(`{"Scenario":{"name":"a \"}\" b","phases":[{"name":"[{"}]}}`),
		Sum:    "feed",
		Result: json.RawMessage(`{"Phases":[{"Name":"x\",\"result\":{"}],"Ops":1}`),
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if want := `,"result":` + string(env.Result) + `}`; !strings.HasSuffix(string(data), want) {
		t.Fatalf("envelope encodes as %s, which does not end with %s", data, want)
	}
	before := string(data)
	got, err := parseEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("parseEnvelope(%s) = %+v, want %+v", data, got, env)
	}
	if string(data) != before {
		t.Fatal("parseEnvelope wrote into the payload")
	}

	for _, bad := range []string{
		"",
		`{"kind":"trial","tag":"t","spec":{},"sum":"s","result":{}}`,       // reordered
		`{"tag":"t","kind":"trial","spec":{},"sum":"s"}`,                   // no result
		`{"tag":"t","kind":"trial","spec":{},"sum":"s","result":}`,         // empty result
		`{"tag":"t","kind":"trial","spec":{"a":[}`,                         // unterminated spec
		`{"tag":"t\u0030","kind":"trial","spec":{},"sum":"s","result":{}}`, // escaped head string
		`{"tag":"t","kind":"trial","spec":{},"sum":"s","result":{}} x`,     // trailing bytes
		`{"tag": "t","kind":"trial","spec":{},"sum":"s","result":{}}`,      // not compact
	} {
		if env, err := parseEnvelope([]byte(bad)); err == nil {
			t.Errorf("parseEnvelope(%s) accepted: %+v", bad, env)
		}
	}
}

// TestPutWritesMarshaledEnvelope: a put writes, byte for byte, the envelope
// json.Marshal writes around json.Marshal's spec and result, so no stored
// byte or key depends on which encoder wrote it. Real trials of every
// structure under ca, rcu and hp, recording latency, tails, timelines and
// the footprint, and a churn-drain scenario trial go through a store, and
// each stored payload is held to that reference.
func TestPutWritesMarshaledEnvelope(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := bench.Runner{Store: st}
	check := func(kind string, spec, res any) {
		t.Helper()
		specBytes, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		result, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(envelope{Tag: st.Tag(), Kind: kind, Spec: specBytes, Sum: payloadSum(result), Result: result})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.loadKey(key(st.Tag(), kind, specBytes)); string(got) != string(want) {
			t.Errorf("%s entry of %s:\nstored    %s\nreference %s", kind, specBytes, got, want)
		}
	}
	for _, ds := range bench.Structures() {
		for _, scheme := range []string{"ca", "rcu", "hp"} {
			w := bench.Workload{
				DS: ds, Scheme: scheme, Threads: 2, KeyRange: 64, UpdatePct: 50,
				OpsPerThread: 60, Seed: 3, FootprintEvery: 16, RecordLatency: true,
				RecordTail: true, RecordTimeline: true, TimelineWindow: 2048,
			}
			res, err := r.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			check(KindTrial, w, res)
		}
	}
	sc, err := scenario.Preset(scenario.PresetChurnDrain)
	if err != nil {
		t.Fatal(err)
	}
	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "rcu", Threads: 4, KeyRange: 128, Seed: 5,
		RecordTail: true, RecordTimeline: true, Scenario: sc,
	}
	sres, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	check(KindScenario, sw, sres)
	puts := uint64(3*len(bench.Structures()) + 1)
	if got := st.Stats(); got.Puts != puts {
		t.Fatalf("store traffic %+v: every trial should have been put once", got)
	}

	// A result json.Marshal refuses, one with a NaN or an infinite float, is
	// refused too, and nothing is stored.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ps := prepared(t, trialW(9))
		err := st.StoreTrialSpec(ps, bench.Result{Throughput: f})
		if err == nil || !strings.Contains(err.Error(), "lab: encoding result") {
			t.Errorf("storing a result with throughput %v: error %v, want lab: encoding result", f, err)
		}
		if _, ok := st.LookupTrialSpec(ps); ok || st.Stats().Puts != puts {
			t.Errorf("a result with throughput %v was stored", f)
		}
	}
}

// TestResultMemberTextInNamesRoundTrips: scenario and phase names holding
// the text of the envelope's result member are escaped by JSON, so only the
// envelope's own member matches and the trial round-trips warm, deeply
// equal and byte-identical.
func TestResultMemberTextInNamesRoundTrips(t *testing.T) {
	const trap = `","result":{`
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 64, Seed: 4, RecordTail: true,
		Scenario: scenario.Scenario{
			Name: "s" + trap,
			Phases: []scenario.Phase{
				{Name: "fill" + trap + "}", Ops: 80, Weights: scenario.Weights{Insert: 1}},
				{Name: trap + `"x":1}`, Ops: 80, Weights: scenario.Weights{Insert: 1, Delete: 1, Read: 2}},
			},
		},
	}
	r := bench.Runner{Store: st}
	cold, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("store traffic %+v, want 1 miss then 1 hit", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm scenario result diverges from cold")
	}
	cb, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(wb) {
		t.Fatal("warm scenario result is not byte-identical to cold")
	}
	spec, err := bench.ScenarioSpecBytes(sw)
	if err != nil {
		t.Fatal(err)
	}
	payload := string(st.loadKey(key(st.Tag(), KindScenario, spec)))
	if !strings.Contains(payload, `\",\"result\":{`) || strings.Count(payload, `,"result":`) != 1 {
		t.Fatalf("payload does not hold the escaped names and one result member: %s", payload)
	}
}

// plantEntry writes a crafted entry under w's key through st's write path:
// its envelope holds result and the fingerprint sum as given, so a test can
// plant a result that fails its fingerprint or is not valid JSON.
func plantEntry(t *testing.T, st *Store, w bench.Workload, result, sum string) {
	t.Helper()
	spec, err := bench.TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	payload := fmt.Sprintf(`{"tag":%q,"kind":%q,"spec":%s,"sum":%q,"result":%s}`,
		st.Tag(), KindTrial, spec, sum, result)
	if err := st.putPayload(key(st.Tag(), KindTrial, spec), []byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsInvalidResultJSON: the head-only envelope parse leaves
// the result unscanned, so Verify must still reject a result that is not
// valid JSON even when its fingerprint matches. A lookup misses it, a
// re-run heals it, and Pack drops the superseded record.
func TestVerifyRejectsInvalidResultJSON(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		dir := t.TempDir()
		w := trialW(5)
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		const bad = `{"Ops":1,}`
		plantEntry(t, st, w, bad, payloadSum([]byte(bad)))

		sound, problems, err := st.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if sound != 0 || len(problems) != 1 || !strings.Contains(problems[0].Reason, "not valid JSON") {
			t.Fatalf("verify: %d sound, problems %+v; want the invalid result reported", sound, problems)
		}
		if _, ok := st.LookupTrialSpec(prepared(t, w)); ok {
			t.Fatal("entry with an invalid result served as a hit")
		}

		r := bench.Runner{Store: st}
		res, err := r.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if got, ok := st.LookupTrialSpec(prepared(t, w)); !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("re-run did not heal the entry (hit %v)", ok)
		}
		// The superseded record stays in its segment until Pack compacts
		// the winners.
		if _, err := st.Pack(); err != nil {
			t.Fatal(err)
		}
		if sound, problems, err := st.Verify(); err != nil || sound != 1 || len(problems) != 0 {
			t.Fatalf("after healing: %d sound, problems %+v, err %v; want 1 sound", sound, problems, err)
		}
	})
}

// TestVerifyRejectsResultOfWrongShape: a result that matches its
// fingerprint and is valid JSON, but is not a trial result, is not a sound
// entry. Verify reports it, SpecEntries leaves it out, and so calab diff's
// cells get no replica from it. A lookup misses it, as it misses every
// entry Verify rejects.
func TestVerifyRejectsResultOfWrongShape(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	good, bad := trialW(1), trialW(2)
	res, err := (&bench.Runner{Store: st}).Run(good)
	if err != nil {
		t.Fatal(err)
	}
	const wrong = `{"Throughput":"fast"}`
	plantEntry(t, st, bad, wrong, payloadSum([]byte(wrong)))

	sound, problems, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sound != 1 || len(problems) != 1 || !strings.Contains(problems[0].Reason, "trial result") {
		t.Fatalf("verify: %d sound, problems %+v; want the misshapen result reported", sound, problems)
	}
	if _, ok := st.LookupTrialSpec(prepared(t, bad)); ok {
		t.Fatal("misshapen result served as a hit")
	}
	entries, err := st.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Seed() != good.Seed {
		t.Fatalf("SpecEntries returned %d entries, want only the sound one", len(entries))
	}
	cells := Cells(entries)
	if len(cells) != 1 || !reflect.DeepEqual(cells[0].Throughputs, []float64{res.Throughput}) {
		t.Fatalf("cells %+v; want one replica with throughput %v", cells, res.Throughput)
	}
}

// TestSpecEntryThroughputOfEachKind: SpecEntry.Throughput decodes a result
// with the decoder of its entry's kind, so a scenario entry reports its
// scenario result's throughput, not zero.
func TestSpecEntryThroughputOfEachKind(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := bench.Runner{Store: st}
	res, err := r.Run(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := r.RunScenario(bench.ScenarioWorkload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 32, Seed: 1,
		Scenario: scenario.Scenario{Name: "s", Phases: []scenario.Phase{{Name: "p", Ops: 40, Weights: scenario.Weights{Insert: 1, Read: 1}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{KindTrial: res.Throughput, KindScenario: sres.Throughput}
	if len(entries) != len(want) {
		t.Fatalf("%d entries, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		if got := e.Throughput(); got != want[e.Kind] || got == 0 {
			t.Errorf("%s entry: throughput %v, want %v", e.Kind, got, want[e.Kind])
		}
	}
}

// TestWarmHitAllocs is the allocation budget of one warm LookupTrialSpec on
// a packed store: one record read, the envelope's head parse, the result's
// fingerprint and its decode, tail histograms included. It counts heap
// allocations and the bytes they take. Decoding the whole envelope with
// encoding/json and each histogram with a nested json.Unmarshal cost 152
// allocations for this trial; the head-only parse and the one-pass
// histogram decoder cost 32 allocations and about 54 KB, most of it
// full-length bucket arrays. The one-pass Result decoder and bucket arrays
// that end at their last non-empty bucket cost 25 allocations and 9.8 KB.
// Deriving the key into one string, checking the record without building
// its key, and comparing the envelope's kind and fingerprint in place cost
// 13 allocations and 9.0 KB: the key, the record (3 KB), the Result, its
// Tail, the bucket arrays (4.8 KB) and the spec's strings.
func TestWarmHitAllocs(t *testing.T) {
	const (
		budget      = 13
		bytesBudget = 9<<10 + 512
		runs        = 100
	)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 32, UpdatePct: 50,
		OpsPerThread: 40, Seed: 1, RecordTail: true,
	}
	if _, err := (&bench.Runner{Store: st}).Run(w); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec, err := bench.TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func() {
		if res, ok := st.LookupTrialSpec(&bench.PreparedSpec{Spec: spec}); !ok || res.Tail == nil {
			t.Fatal("warm lookup missed or lost its tail")
		}
	}
	allocs := testing.AllocsPerRun(runs, lookup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		lookup()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm hit: %v allocations, %d bytes", allocs, bytes)
	if allocs > budget {
		t.Errorf("warm hit allocates %v times, budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("warm hit allocates %d bytes, budget %d", bytes, bytesBudget)
	}
}

// TestStoredRecordBytes is the size budget of one stored record: the bytes
// segment flushes make durable per Put, for one list/ca trial (2 threads ×
// 40 ops over 32 keys, u=50), stored plain and with tail histograms. The
// record is the trial's serialized result inside its envelope, so a field
// added to Result, a spec repeated in the result, or a fatter histogram
// encoding shows up here before it shows up in a store's size.
func TestStoredRecordBytes(t *testing.T) {
	for _, c := range []struct {
		name   string
		tail   bool
		budget uint64
	}{
		{"plain", false, 1643},
		{"tail", true, 2787},
	} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w := bench.Workload{
			DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50,
			OpsPerThread: 40, Seed: 1, RecordTail: c.tail,
		}
		if _, err := (&bench.Runner{Store: st}).Run(w); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		s := st.Stats()
		if s.Puts != 1 {
			t.Fatalf("%s: %d puts, want 1", c.name, s.Puts)
		}
		got := s.BytesWritten / s.Puts
		t.Logf("%s: %d bytes per stored record", c.name, got)
		if got > c.budget {
			t.Errorf("%s: a stored record takes %d bytes, budget %d", c.name, got, c.budget)
		}
	}
}
