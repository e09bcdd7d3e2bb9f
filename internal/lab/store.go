package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/obs"
)

// Entry kinds, also the on-disk envelope discriminator.
const (
	KindTrial    = "trial"
	KindScenario = "scenario"
)

// Store is an on-disk, content-addressed trial store. Every entry is keyed
// by key = SHA-256(engine tag, kind, canonical spec): the name is the
// content address of the spec, so integrity is checkable offline and two
// stores can be diffed by coordinates without sharing any state.
//
// Two coexisting layouts back the same keyspace:
//
//   - Packed (the write path): append-only segment files under segments/
//     holding length-prefixed, checksummed records, plus an in-memory
//     index loaded once per Open from a sidecar (segment.go). A warm
//     lookup is a map probe and one ReadAt; puts buffer per stripe and
//     flush in batches with one fsync per flush.
//   - Loose (the historical layout): one self-describing JSON file per
//     entry under objects/<kk>/<key>.json, written by pre-pack binaries
//     (and by OpenLoose handles). Lookups consult the index first and fall
//     back to the loose probe, so old stores keep serving without
//     conversion; `calab pack` converts them in place.
type Store struct {
	dir   string
	tag   string
	loose bool // write loose objects instead of packed segments (OpenLoose)

	mu      sync.RWMutex
	index   map[string]recLoc // content key -> flushed packed record
	pending map[string][]byte // content key -> buffered envelope payload, not yet flushed
	readers map[int]*os.File  // open segment read handles
	covered map[int]int64     // indexed clean-prefix length per segment
	writers []*segmentWriter
	nextSeg int
	dirty   bool // in-memory index has entries the sidecar lacks

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
	opens  atomic.Uint64 // file opens; warm packed sweeps keep this O(segments)

	// Write-back durability counters (segment.go): batched flushes, bytes
	// made durable (segment flushes and loose entry writes), and the time
	// spent inside flushes (fsync included) and loading the index at Open.
	flushes        atomic.Uint64
	bytesWritten   atomic.Uint64
	flushNanos     atomic.Int64
	fsyncNanos     atomic.Int64
	indexLoadNanos atomic.Int64

	// OnFlush, when non-nil, is called after each durable segment flush
	// with the number of records published and bytes written. It is
	// observational (obs event stream); set it before the store sees
	// traffic and never from a callback. Called with no store locks held
	// beyond the flushing stripe's.
	OnFlush func(records, bytes int)
}

// Store implements the harness's read-through/write-through contract,
// including the keyed fast path.
var (
	_ bench.TrialStore      = (*Store)(nil)
	_ bench.KeyedTrialStore = (*Store)(nil)
)

// writeStripes is the number of append buffers puts are striped across:
// enough that pool workers rarely contend on one buffer's lock, few enough
// that a cold run leaves a handful of segments, not one per trial.
const writeStripes = 4

// Open opens (creating if necessary) the store rooted at dir. Entries are
// keyed under the current bench.EngineTag(); entries written by other engine
// versions remain on disk — invisible to lookups — until GC. The packed
// index is loaded here, once: the sidecar if it is current, plus a scan of
// whatever segment bytes it does not cover.
func Open(dir string) (*Store, error) {
	return openTagged(dir, bench.EngineTag(), false)
}

// OpenLoose opens the store with the historical loose-object write path:
// every put is its own temp-file + rename under objects/. Packed segments
// are still read. It exists for benchmarking the two layouts against each
// other and for producing stores shaped like pre-pack binaries left them.
func OpenLoose(dir string) (*Store, error) {
	return openTagged(dir, bench.EngineTag(), true)
}

func openTagged(dir, tag string, loose bool) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("lab: opening store: %w", err)
	}
	s := &Store{
		dir: dir, tag: tag, loose: loose,
		index:   map[string]recLoc{},
		pending: map[string][]byte{},
		readers: map[int]*os.File{},
		covered: map[int]int64{},
	}
	for i := 0; i < writeStripes; i++ {
		s.writers = append(s.writers, &segmentWriter{st: s})
	}
	t0 := time.Now()
	s.loadSidecar()
	if err := s.refresh(); err != nil {
		return nil, err
	}
	s.indexLoadNanos.Add(int64(time.Since(t0)))
	return s, nil
}

// OpenExisting opens a store that must already exist. Read-only consumers
// (calab) use this so a mistyped path fails loudly instead of silently
// materializing an empty store and reporting zero entries.
func OpenExisting(dir string) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "objects")); err != nil {
		if _, serr := os.Stat(filepath.Join(dir, "segments")); serr != nil {
			return nil, fmt.Errorf("lab: %s is not a result store (no objects/ or segments/ directory): %w", dir, err)
		}
	}
	return Open(dir)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Tag returns the engine tag lookups are scoped to.
func (s *Store) Tag() string { return s.tag }

// StoreStats counts this handle's store traffic. After a fully warm sweep,
// Misses, Puts, Flushes, and BytesWritten are zero: every trial came from
// the store and none was simulated or written back. Opens counts file opens
// — a warm packed sweep holds it at O(segments) however many trials it
// serves. The nanosecond fields time the durability work itself: flushes
// (FsyncNanos is the fsync share of FlushNanos) and the one-time index load
// at Open.
type StoreStats struct {
	Hits   uint64
	Misses uint64
	Puts   uint64
	Opens  uint64

	Flushes      uint64 // durable write-back batches (one fsync each)
	BytesWritten uint64 // bytes made durable (segment flushes + loose writes)

	FlushNanos     int64
	FsyncNanos     int64
	IndexLoadNanos int64
}

// Stats returns the traffic counters accumulated on this handle.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(), Opens: s.opens.Load(),
		Flushes: s.flushes.Load(), BytesWritten: s.bytesWritten.Load(),
		FlushNanos: s.flushNanos.Load(), FsyncNanos: s.fsyncNanos.Load(),
		IndexLoadNanos: s.indexLoadNanos.Load(),
	}
}

// Rollup converts the counters to the manifest's store section.
func (s StoreStats) Rollup() obs.StoreRollup {
	return obs.StoreRollup{
		Hits: s.Hits, Misses: s.Misses, Puts: s.Puts, Opens: s.Opens,
		Flushes: s.Flushes, BytesWritten: s.BytesWritten,
		FlushNanos: s.FlushNanos, FsyncNanos: s.FsyncNanos,
		IndexLoadNanos: s.IndexLoadNanos,
	}
}

// String renders the traffic line every -store command reports on stderr;
// "(100% warm)" is the re-run-executed-zero-trials signal CI greps for. A
// handle that served no lookups at all says so explicitly — "0% warm"
// would read as a fully cold run to the same greps. When the handle wrote
// anything back durably, the line gains the flush traffic; a fully warm run
// writes nothing and keeps the historical line byte for byte.
func (s StoreStats) String() string {
	total := s.Hits + s.Misses
	if total == 0 {
		return "store: no traffic"
	}
	pct := 100 * float64(s.Hits) / float64(total)
	line := fmt.Sprintf("store: %d hits, %d misses (%.0f%% warm)", s.Hits, s.Misses, pct)
	if s.Flushes > 0 || s.BytesWritten > 0 {
		line += fmt.Sprintf(", %d flushes (%s written)", s.Flushes, formatBytes(s.BytesWritten))
	}
	return line
}

// formatBytes renders a byte count with a binary unit, one decimal place
// past KiB.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// envelope is the entry payload format, shared by both layouts (a packed
// record's payload is exactly a loose file's contents). Spec and Result are
// the canonical serialized forms verbatim; Sum fingerprints Result so a
// lookup (and Verify) can detect payload corruption. The field order is
// part of the format: parseEnvelope reads the head in this order and needs
// Result last (TestEnvelopeResultIsLast).
type envelope struct {
	Tag    string          `json:"tag"`
	Kind   string          `json:"kind"`
	Spec   json.RawMessage `json:"spec"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// parseEnvelope splits an entry payload into its head (tag, kind, spec and
// sum) and its result, without running the result through a JSON decoder.
// It relies on the layout json.Marshal gives an envelope: compact, fields in
// declaration order, Result last. So the head is read member by member, the
// spec is skipped as one JSON object, and the result is every byte between
// the `,"result":` member and the closing brace, past which only whitespace
// (a loose file's newline) may follow. Spec and Result alias payload, which
// is never written: payloads in the pending overlay are shared across
// goroutines. The result is not validated here; a lookup's decode and
// verifyPayload's json.Valid do that.
func parseEnvelope(payload []byte) (envelope, error) {
	var env envelope
	r := envelopeReader{p: payload, ok: true}
	r.cut(`{"tag":`)
	env.Tag = r.str()
	r.cut(`,"kind":`)
	env.Kind = r.str()
	r.cut(`,"spec":`)
	env.Spec = r.object()
	r.cut(`,"sum":`)
	env.Sum = r.str()
	r.cut(`,"result":`)
	if r.ok {
		env.Result, r.ok = bytes.CutSuffix(bytes.TrimRight(r.p, " \t\r\n"), []byte("}"))
	}
	if !r.ok || len(env.Result) == 0 {
		return envelope{}, errors.New("malformed entry envelope")
	}
	return env, nil
}

// envelopeReader is parseEnvelope's cursor. The first mismatch clears ok,
// and every later step is then a no-op.
type envelopeReader struct {
	p  []byte
	ok bool
}

// cut consumes prefix.
func (r *envelopeReader) cut(prefix string) {
	r.ok = r.ok && len(r.p) >= len(prefix) && string(r.p[:len(prefix)]) == prefix
	if r.ok {
		r.p = r.p[len(prefix):]
	}
}

// str consumes a JSON string. The head's strings are hex digits and kind
// names, so one with an escape is malformed.
func (r *envelopeReader) str() string {
	r.cut(`"`)
	if !r.ok {
		return ""
	}
	n := bytes.IndexByte(r.p, '"')
	if r.ok = n >= 0 && bytes.IndexByte(r.p[:n], '\\') < 0; !r.ok {
		return ""
	}
	s := string(r.p[:n])
	r.p = r.p[n+1:]
	return s
}

// object consumes one JSON object, matching braces and brackets outside
// strings. It does not validate what lies between: a spec's decode and its
// content-address check do.
func (r *envelopeReader) object() []byte {
	r.ok = r.ok && len(r.p) > 0 && r.p[0] == '{'
	depth, inString := 0, false
	for i := 0; r.ok && i < len(r.p); i++ {
		switch c := r.p[i]; {
		case inString && c == '\\':
			i++ // skip the escaped byte
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth == 0 {
				obj := r.p[:i+1]
				r.p = r.p[i+1:]
				return obj
			}
		}
	}
	r.ok = false
	return nil
}

// key derives the content address of a spec under tag.
func key(tag, kind string, spec []byte) string {
	h := sha256.New()
	io.WriteString(h, tag)
	h.Write([]byte{'\n'})
	io.WriteString(h, kind)
	h.Write([]byte{'\n'})
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil))
}

// payloadSum fingerprints a serialized result.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

// loadKey fetches the envelope payload for key, trying the in-process
// overlay of unflushed puts, then the packed index (one ReadAt), then the
// loose layout (one file read). It returns nil when the key is absent or
// its bytes fail their checksums.
func (s *Store) loadKey(key string) []byte {
	s.mu.RLock()
	data, buffered := s.pending[key]
	loc, indexed := s.index[key]
	s.mu.RUnlock()
	if buffered {
		return data
	}
	if indexed {
		if payload, err := s.readRecord(loc); err == nil {
			return payload
		}
		// A bad record (bitrot, lineage mismatch) falls through to the
		// loose probe; a miss re-simulates and heals.
	}
	payload, err := s.readLoose(key)
	if err != nil {
		return nil
	}
	return payload
}

// readLoose reads a loose entry file's raw contents.
func (s *Store) readLoose(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if err == nil {
		s.opens.Add(1)
	}
	return data, err
}

// lookupKey reads the entry at key into out. Any defect — missing record,
// unparsable envelope, wrong kind, corrupt payload — is a miss: the caller
// re-simulates and the write-through overwrites the bad entry.
func (s *Store) lookupKey(kind, key string, out any) bool {
	env, err := parseEnvelope(s.loadKey(key))
	if err != nil || env.Kind != kind || payloadSum(env.Result) != env.Sum || json.Unmarshal(env.Result, out) != nil {
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// putKey writes the entry for (kind, spec) under its precomputed key: a
// buffered segment append on the packed path, an atomic loose file write on
// an OpenLoose handle.
func (s *Store) putKey(kind string, spec []byte, key string, res any) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("lab: encoding result: %w", err)
	}
	data, err := json.Marshal(envelope{
		Tag: s.tag, Kind: kind, Spec: spec,
		Sum: payloadSum(payload), Result: payload,
	})
	if err != nil {
		return fmt.Errorf("lab: encoding entry: %w", err)
	}
	return s.putPayload(key, data)
}

// putLoose writes one loose entry file atomically (temp file + rename), so
// concurrent writers and interrupted runs never leave a partial entry under
// a valid name.
func (s *Store) putLoose(key string, data []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	s.opens.Add(1)
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: writing entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: writing entry: %w", err)
	}
	s.bytesWritten.Add(uint64(len(data) + 1))
	return nil
}

func readEnvelope(path string) (envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return envelope{}, err
	}
	return parseEnvelope(data)
}

// specKeyOf resolves a prepared spec's memoized content key, deriving and
// caching it on first use so the write-through after a miss never re-hashes.
func (s *Store) specKeyOf(kind string, ps *bench.PreparedSpec) string {
	if ps.Key == "" {
		ps.Key = key(s.tag, kind, ps.Spec)
	}
	return ps.Key
}

// LookupTrialSpec implements bench.KeyedTrialStore: the spec is already
// canonicalized, and the derived key is memoized on ps for the put.
func (s *Store) LookupTrialSpec(ps *bench.PreparedSpec) (bench.Result, bool) {
	var res bench.Result
	return res, s.lookupKey(KindTrial, s.specKeyOf(KindTrial, ps), &res)
}

// StoreTrialSpec implements bench.KeyedTrialStore.
func (s *Store) StoreTrialSpec(ps *bench.PreparedSpec, res bench.Result) error {
	return s.putKey(KindTrial, ps.Spec, s.specKeyOf(KindTrial, ps), res)
}

// LookupScenarioSpec implements bench.KeyedTrialStore.
func (s *Store) LookupScenarioSpec(ps *bench.PreparedSpec) (bench.ScenarioResult, bool) {
	var res bench.ScenarioResult
	return res, s.lookupKey(KindScenario, s.specKeyOf(KindScenario, ps), &res)
}

// StoreScenarioSpec implements bench.KeyedTrialStore.
func (s *Store) StoreScenarioSpec(ps *bench.PreparedSpec, res bench.ScenarioResult) error {
	return s.putKey(KindScenario, ps.Spec, s.specKeyOf(KindScenario, ps), res)
}

// LookupTrial implements bench.TrialStore.
func (s *Store) LookupTrial(w bench.Workload) (bench.Result, bool) {
	spec, err := bench.TrialSpecBytes(w)
	if err != nil {
		s.misses.Add(1)
		return bench.Result{}, false
	}
	return s.LookupTrialSpec(&bench.PreparedSpec{Spec: spec})
}

// StoreTrial implements bench.TrialStore.
func (s *Store) StoreTrial(w bench.Workload, res bench.Result) error {
	spec, err := bench.TrialSpecBytes(w)
	if err != nil {
		return fmt.Errorf("lab: encoding trial spec: %w", err)
	}
	return s.StoreTrialSpec(&bench.PreparedSpec{Spec: spec}, res)
}

// LookupScenario implements bench.TrialStore.
func (s *Store) LookupScenario(sw bench.ScenarioWorkload) (bench.ScenarioResult, bool) {
	spec, err := bench.ScenarioSpecBytes(sw)
	if err != nil {
		s.misses.Add(1)
		return bench.ScenarioResult{}, false
	}
	return s.LookupScenarioSpec(&bench.PreparedSpec{Spec: spec})
}

// StoreScenario implements bench.TrialStore.
func (s *Store) StoreScenario(sw bench.ScenarioWorkload, res bench.ScenarioResult) error {
	spec, err := bench.ScenarioSpecBytes(sw)
	if err != nil {
		return fmt.Errorf("lab: encoding scenario spec: %w", err)
	}
	return s.StoreScenarioSpec(&bench.PreparedSpec{Spec: spec}, res)
}

// Entry is one fully decoded store entry. Exactly one of the (Workload,
// Result) and (Scenario, ScenarioResult) pairs is set, per Kind.
type Entry struct {
	Key  string
	Tag  string
	Kind string

	Workload *bench.Workload
	Result   *bench.Result

	Scenario       *bench.ScenarioSpec
	ScenarioResult *bench.ScenarioResult
}

// SpecEntry is one store entry with its spec decoded and its result left as
// raw bytes. Cell grouping and diffing need every entry's coordinates and
// seed (the spec) but only one number from the result, so they read entries
// spec-first and decode the payload lazily instead of materializing every
// trial's full Result — tail histograms, phase segments and all.
type SpecEntry struct {
	Key  string
	Tag  string
	Kind string

	Workload *bench.Workload     // KindTrial
	Scenario *bench.ScenarioSpec // KindScenario

	rawResult json.RawMessage
}

// Seed returns the entry's spec seed.
func (e *SpecEntry) Seed() uint64 {
	if e.Kind == KindScenario {
		return e.Scenario.Seed
	}
	return e.Workload.Seed
}

// Throughput partially decodes just the throughput from the raw result.
func (e *SpecEntry) Throughput() float64 {
	var t struct{ Throughput float64 }
	if json.Unmarshal(e.rawResult, &t) != nil {
		return 0
	}
	return t.Throughput
}

// Decode materializes the full entry, result payload included.
func (e *SpecEntry) Decode() (Entry, error) {
	full := Entry{Key: e.Key, Tag: e.Tag, Kind: e.Kind, Workload: e.Workload, Scenario: e.Scenario}
	if e.Kind == KindScenario {
		full.ScenarioResult = new(bench.ScenarioResult)
		if err := json.Unmarshal(e.rawResult, full.ScenarioResult); err != nil {
			return Entry{}, fmt.Errorf("decoding scenario result: %w", err)
		}
		return full, nil
	}
	full.Result = new(bench.Result)
	if err := json.Unmarshal(e.rawResult, full.Result); err != nil {
		return Entry{}, fmt.Errorf("decoding trial result: %w", err)
	}
	return full, nil
}

// walk visits every loose entry file under the store in deterministic
// (sorted path) order.
func (s *Store) walk(fn func(path string) error) error {
	root := filepath.Join(s.dir, "objects")
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lab: walking store: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// specEntryOf validates an envelope against its claimed content address and
// decodes its spec, leaving the result raw.
func specEntryOf(name string, env envelope) (SpecEntry, error) {
	if got := key(env.Tag, env.Kind, env.Spec); got != name {
		return SpecEntry{}, fmt.Errorf("content address mismatch: entry %s, spec hashes to %s", name, got)
	}
	if payloadSum(env.Result) != env.Sum {
		return SpecEntry{}, errors.New("result payload does not match its fingerprint")
	}
	e := SpecEntry{Key: name, Tag: env.Tag, Kind: env.Kind, rawResult: env.Result}
	switch env.Kind {
	case KindTrial:
		e.Workload = new(bench.Workload)
		if err := json.Unmarshal(env.Spec, e.Workload); err != nil {
			return SpecEntry{}, fmt.Errorf("decoding trial spec: %w", err)
		}
	case KindScenario:
		e.Scenario = new(bench.ScenarioSpec)
		if err := json.Unmarshal(env.Spec, e.Scenario); err != nil {
			return SpecEntry{}, fmt.Errorf("decoding scenario spec: %w", err)
		}
	default:
		return SpecEntry{}, fmt.Errorf("unknown entry kind %q", env.Kind)
	}
	return e, nil
}

// forEachSpecEntry visits every valid entry across both layouts, packed
// index winners first, then loose files whose key the index doesn't hold
// (the packed write path is newer than any loose leftover). Corrupt entries
// are skipped — Verify reports them. Whole-store reads flush and refresh
// first, so they see every durable record, this handle's and others'.
func (s *Store) forEachSpecEntry(fn func(SpecEntry)) error {
	if err := s.Flush(); err != nil {
		return err
	}
	if err := s.refresh(); err != nil {
		return err
	}
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	packed := map[string]bool{}
	for _, k := range keys {
		s.mu.RLock()
		loc, ok := s.index[k]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		payload, err := s.readRecord(loc)
		if err != nil {
			continue
		}
		env, err := parseEnvelope(payload)
		if err != nil {
			continue
		}
		e, err := specEntryOf(k, env)
		if err != nil {
			continue
		}
		packed[k] = true
		fn(e)
	}
	return s.walk(func(path string) error {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if packed[name] {
			return nil
		}
		env, err := readEnvelope(path)
		if err != nil {
			return nil
		}
		s.opens.Add(1)
		e, err := specEntryOf(name, env)
		if err != nil {
			return nil
		}
		fn(e)
		return nil
	})
}

// SpecEntries reads every valid entry (all engine tags, both layouts) with
// specs decoded and results raw, in deterministic (sorted key) order.
func (s *Store) SpecEntries() ([]SpecEntry, error) {
	var entries []SpecEntry
	err := s.forEachSpecEntry(func(e SpecEntry) { entries = append(entries, e) })
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries, nil
}

// Entries fully decodes every valid entry in the store (all engine tags,
// both layouts), in deterministic order. Corrupt entries are skipped —
// Verify reports them.
func (s *Store) Entries() ([]Entry, error) {
	specs, err := s.SpecEntries()
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for i := range specs {
		e, err := specs[i].Decode()
		if err != nil {
			continue
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Problem is one integrity defect found by Verify.
type Problem struct {
	Path   string
	Reason string
}

// verifyPayload checks one entry payload end to end: envelope parses, the
// claimed key matches the content address of (tag, kind, spec), the result
// payload matches its fingerprint and is valid JSON, and the spec decodes
// under its kind.
func verifyPayload(name string, payload []byte) (envelope, error) {
	env, err := parseEnvelope(payload)
	if err != nil {
		return env, err
	}
	if _, err := specEntryOf(name, env); err != nil {
		return env, err
	}
	if !json.Valid(env.Result) {
		return env, errors.New("result payload is not valid JSON")
	}
	return env, nil
}

// Verify checks the integrity of every entry in both layouts. For loose
// entries: the envelope parses, the file name matches the content address,
// and the payload matches its fingerprint. For packed segments every
// record is re-framed, re-checksummed, and verified the same way; a
// truncated or corrupt tail (the residue of a crashed flush) is reported
// once per segment — lookups already ignore it, and Pack drops it. It
// returns the number of sound records alongside the defects.
func (s *Store) Verify() (sound int, problems []Problem, err error) {
	if err := s.Flush(); err != nil {
		return 0, nil, err
	}
	if err := s.refresh(); err != nil {
		return 0, nil, err
	}
	segs, err := s.listSegments()
	if err != nil {
		return 0, nil, err
	}
	for _, seg := range segs {
		path := s.segmentPath(seg)
		f, ferr := os.Open(path)
		if ferr != nil {
			return 0, nil, fmt.Errorf("lab: %w", ferr)
		}
		s.opens.Add(1)
		st, serr := f.Stat()
		if serr != nil {
			f.Close()
			return 0, nil, fmt.Errorf("lab: %w", serr)
		}
		end, serr := scanSegment(f, 0, func(key string, loc recLoc, payload []byte) error {
			if _, verr := verifyPayload(key, payload); verr != nil {
				problems = append(problems, Problem{
					Path:   fmt.Sprintf("%s@%d", path, loc.off),
					Reason: verr.Error(),
				})
				return nil
			}
			sound++
			return nil
		}, seg)
		f.Close()
		if serr != nil {
			return 0, nil, serr
		}
		if end < st.Size() {
			problems = append(problems, Problem{
				Path:   fmt.Sprintf("%s@%d", path, end),
				Reason: fmt.Sprintf("truncated or checksum-corrupt tail record (%d trailing bytes ignored; calab pack drops them)", st.Size()-end),
			})
		}
	}
	err = s.walk(func(path string) error {
		data, derr := os.ReadFile(path)
		if derr == nil {
			s.opens.Add(1)
			_, derr = verifyPayload(strings.TrimSuffix(filepath.Base(path), ".json"), data)
		}
		if derr != nil {
			problems = append(problems, Problem{Path: path, Reason: derr.Error()})
			return nil
		}
		sound++
		return nil
	})
	return sound, problems, err
}

// GC removes store entries that can no longer serve lookups: entries
// written under a different engine tag than the current one, and corrupt
// entries. With all set, every entry goes. Loose entries are unlinked;
// packed survivors are compacted into a fresh segment (which also drops
// superseded records and crash residue). It returns the number of entries
// removed and kept.
func (s *Store) GC(all bool) (removed, kept int, err error) {
	if err := s.Flush(); err != nil {
		return 0, 0, err
	}
	if err := s.refresh(); err != nil {
		return 0, 0, err
	}

	// Loose layout: unlink losers file by file, as always; survivors stay
	// loose (conversion is Pack's, not GC's).
	err = s.walk(func(path string) error {
		keep := false
		if !all {
			if data, derr := os.ReadFile(path); derr == nil {
				s.opens.Add(1)
				name := strings.TrimSuffix(filepath.Base(path), ".json")
				env, verr := verifyPayload(name, data)
				keep = verr == nil && env.Tag == s.tag
			}
		}
		if keep {
			kept++
			return nil
		}
		if rerr := os.Remove(path); rerr != nil {
			return fmt.Errorf("lab: gc: %w", rerr)
		}
		removed++
		return nil
	})
	if err != nil {
		return removed, kept, err
	}

	// Packed layout: prune the index of losers, then compact the
	// survivors into a fresh segment (which also drops superseded records
	// and crash residue).
	for _, key := range s.indexKeys() {
		s.mu.RLock()
		loc, ok := s.index[key]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		keep := false
		if !all {
			if payload, rerr := s.readRecord(loc); rerr == nil {
				env, verr := verifyPayload(key, payload)
				keep = verr == nil && env.Tag == s.tag
			}
		}
		if keep {
			kept++
			continue
		}
		s.mu.Lock()
		delete(s.index, key)
		s.dirty = true
		s.mu.Unlock()
		removed++
	}
	if err := s.compactSegments(nil); err != nil {
		return removed, kept, err
	}
	return removed, kept, nil
}

// indexKeys snapshots the index's keys in sorted order.
func (s *Store) indexKeys() []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}
