package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/jsonio"
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
// Entries live in append-only segment files under segments/ holding
// length-prefixed, checksummed records; the segments are the store's only
// on-disk state. Open builds an in-memory index by scanning their frames
// (segment.go). A warm lookup is a map probe and one ReadAt; puts buffer in
// the handle's one append buffer and flush in batches with one fsync per
// flush, into the one segment the handle creates.
type Store struct {
	dir string
	tag string

	mu      sync.RWMutex
	index   map[string]recLoc // content key -> flushed packed record
	pending map[string][]byte // content key -> buffered envelope payload, not yet flushed
	readers map[int]*os.File  // open segment read handles
	covered map[int]int64     // indexed clean-prefix length per segment
	nextSeg int

	w appender // the handle's append buffer and segment

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
	opens  atomic.Uint64 // file opens; warm packed sweeps keep this O(segments)

	// Write-back durability counters (segment.go): batched flushes, bytes
	// made durable by them, and the time spent inside flushes (fsync
	// included) and scanning the segments into the index at Open.
	flushes        atomic.Uint64
	bytesWritten   atomic.Uint64
	flushNanos     atomic.Int64
	fsyncNanos     atomic.Int64
	indexLoadNanos atomic.Int64

	// OnFlush, when non-nil, is called after each durable segment flush
	// with the number of records published and bytes written. It is
	// observational (obs event stream); set it before the store sees
	// traffic and never from a callback. Called with no store locks held
	// beyond the append buffer's.
	OnFlush func(records, bytes int)
}

// Store implements the harness's read-through/write-through contract.
var _ bench.TrialStore = (*Store)(nil)

// Open opens (creating if necessary) the store rooted at dir. Entries are
// keyed under the current bench.EngineTag(); entries written by other engine
// versions remain on disk — invisible to lookups — until GC. The packed
// index is built here, once, by scanning every segment's frames.
func Open(dir string) (*Store, error) {
	return openTagged(dir, bench.EngineTag())
}

func openTagged(dir, tag string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		return nil, fmt.Errorf("lab: opening store: %w", err)
	}
	s := &Store{
		dir: dir, tag: tag,
		index:   map[string]recLoc{},
		pending: map[string][]byte{},
		readers: map[int]*os.File{},
		covered: map[int]int64{},
	}
	t0 := time.Now()
	if err := s.refresh(); err != nil {
		s.Close()
		return nil, err
	}
	s.indexLoadNanos.Add(int64(time.Since(t0)))
	return s, nil
}

// OpenExisting opens a store that must already exist. Read-only consumers
// (calab) use this so a mistyped path fails loudly instead of silently
// materializing an empty store and reporting zero entries.
func OpenExisting(dir string) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "segments")); err != nil {
		return nil, fmt.Errorf("lab: %s is not a result store (no segments/ directory): %w", dir, err)
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
// — one per segment at Open, and a warm sweep adds none however many trials
// it serves. The nanosecond fields time the durability work itself: flushes
// (FsyncNanos is the fsync share of FlushNanos) and the one-time segment
// scan that builds the index at Open. The fields are obs.StoreRollup's, in
// its order: the CLIs convert one to the other for the run manifest.
type StoreStats struct {
	Hits   uint64
	Misses uint64
	Puts   uint64
	Opens  uint64

	Flushes      uint64 // durable write-back batches (one fsync each)
	BytesWritten uint64 // bytes made durable by segment flushes

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

// envelope is the entry payload format: a packed record's payload is the
// JSON json.Marshal writes for it. Spec and Result are the canonical
// serialized forms verbatim; Sum fingerprints Result so a lookup (and
// Verify) can detect payload corruption. The field order is part of the
// format: putKey writes the members in this order, and splitEnvelope reads
// the head in this order and needs Result last (TestEnvelopeResultIsLast,
// TestPutWritesMarshaledEnvelope).
type envelope struct {
	Tag    string          `json:"tag"`
	Kind   string          `json:"kind"`
	Spec   json.RawMessage `json:"spec"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// rawEnvelope is an entry payload split into its members, each aliasing
// the payload: the head strings without their quotes, the spec and the
// result as JSON.
type rawEnvelope struct{ tag, kind, spec, sum, result []byte }

// splitEnvelope splits an entry payload into its head (tag, kind, spec and
// sum) and its result, without copying and without running the result
// through a JSON decoder. It relies on the layout putKey writes: compact,
// fields in declaration order, Result last. So the head is read member by
// member, the spec is skipped as one JSON object, and the result is every
// byte between the `,"result":` member and the closing brace, past which
// only whitespace may follow. Every member aliases payload, which is never
// written: payloads in the pending overlay are shared across goroutines.
// The result is not validated here; the strict decode that a lookup and
// verifyPayload run does that.
func splitEnvelope(payload []byte) (rawEnvelope, error) {
	var env rawEnvelope
	r := envelopeReader{p: payload, ok: true}
	r.cut(`{"tag":`)
	env.tag = r.str()
	r.cut(`,"kind":`)
	env.kind = r.str()
	r.cut(`,"spec":`)
	env.spec = r.object()
	r.cut(`,"sum":`)
	env.sum = r.str()
	r.cut(`,"result":`)
	if r.ok {
		env.result, r.ok = bytes.CutSuffix(bytes.TrimRight(r.p, " \t\r\n"), []byte("}"))
	}
	if !r.ok || len(env.result) == 0 {
		return rawEnvelope{}, errors.New("malformed entry envelope")
	}
	return env, nil
}

// parseEnvelope is splitEnvelope with the head strings copied out, for the
// whole-store operations that keep them.
func parseEnvelope(payload []byte) (envelope, error) {
	env, err := splitEnvelope(payload)
	if err != nil {
		return envelope{}, err
	}
	return envelope{Tag: string(env.tag), Kind: string(env.kind), Spec: env.spec, Sum: string(env.sum), Result: env.result}, nil
}

// envelopeReader is splitEnvelope's cursor. The first mismatch clears ok,
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

// str consumes a JSON string and returns its bytes between the quotes. The
// head's strings are hex digits and kind names, so one with an escape is
// malformed.
func (r *envelopeReader) str() []byte {
	r.cut(`"`)
	if !r.ok {
		return nil
	}
	n := bytes.IndexByte(r.p, '"')
	if r.ok = n >= 0 && bytes.IndexByte(r.p[:n], '\\') < 0; !r.ok {
		return nil
	}
	s := r.p[:n]
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

// key derives the content address of a spec under tag: the hex digits of
// SHA-256(tag, '\n', kind, '\n', spec). Every trial derives one, warm hits
// included, so it hashes one buffer, which stays on the stack for a trial
// spec, and allocates only the key string.
func key(tag, kind string, spec []byte) string {
	var buf [1024]byte
	b := append(buf[:0], tag...)
	b = append(b, '\n')
	b = append(b, kind...)
	b = append(b, '\n')
	b = append(b, spec...)
	sum := sha256.Sum256(b)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// payloadSum fingerprints a serialized result.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// sumMatches reports whether sum is payload's fingerprint, allocating
// nothing.
func sumMatches(payload, sum []byte) bool {
	d := sha256.Sum256(payload)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], d[:])
	return bytes.Equal(digits[:], sum)
}

// loadKey fetches the envelope payload for key, trying the in-process
// overlay of unflushed puts, then the packed index (one ReadAt). It returns
// nil when the key is absent or its record fails its checks: its frame, its
// checksum, or its key.
func (s *Store) loadKey(key string) []byte {
	s.mu.RLock()
	data, buffered := s.pending[key]
	loc, indexed := s.index[key]
	s.mu.RUnlock()
	if buffered || !indexed {
		return data
	}
	payload, err := s.readRecord(key, loc)
	if err != nil {
		// A bad record (bitrot, a stale location) is a miss; the trial
		// re-simulates and its write-through appends a sound record.
		return nil
	}
	return payload
}

// lookupKey reads the entry at key into out with out's one-pass decoder.
// Any defect — missing record, unparsable envelope, wrong kind, corrupt
// payload, a result its kind's decoder rejects — is a miss: the caller
// re-simulates and the write-through supersedes the bad record. The
// payload's fingerprint proves the bytes are the writer's, so the decode
// skips encoding/json's validating prescan.
func (s *Store) lookupKey(kind, key string, out json.Unmarshaler) bool {
	env, err := splitEnvelope(s.loadKey(key))
	if err != nil || string(env.kind) != kind || !sumMatches(env.result, env.sum) || out.UnmarshalJSON(env.result) != nil {
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// resultAppender is a result putKey can store: bench.Result and
// bench.ScenarioResult, whose AppendJSON writes what json.Marshal would.
type resultAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// putKey writes the entry for (kind, spec) under its precomputed key as a
// buffered segment append. It writes the envelope itself, byte for byte
// what json.Marshal writes for envelope{…}, with no reflection: spec is
// already the canonical compact JSON, the result is appended in place, and
// its fingerprint, which comes first, is filled in after. The envelope is
// encoded into a recycled buffer and copied out at its exact size, since
// the pending overlay holds it until the append buffer flushes.
func (s *Store) putKey(kind string, spec []byte, key string, res resultAppender) error {
	buf := putBufs.Get().(*[]byte)
	c := jsonio.Codec{B: (*buf)[:0]}
	defer func() {
		*buf = c.B
		putBufs.Put(buf)
	}()
	c.Begin()
	c.Key("tag").Str(&s.tag)
	c.Key("kind").Str(&kind)
	c.Key("spec")
	c.B = append(c.B, spec...)
	c.Key("sum")
	c.B = append(c.B, '"')
	sumAt := len(c.B)
	c.B = append(c.B, make([]byte, 2*sha256.Size)...)
	c.B = append(c.B, '"')
	c.Key("result")
	start := len(c.B)
	var err error
	if c.B, err = res.AppendJSON(c.B); err != nil {
		return fmt.Errorf("lab: encoding result: %w", err)
	}
	sum := sha256.Sum256(c.B[start:])
	hex.Encode(c.B[sumAt:], sum[:])
	c.End()
	return s.putPayload(key, bytes.Clone(c.B))
}

// putBufs recycles putKey's encoding buffers.
var putBufs = sync.Pool{New: func() any { return new([]byte) }}

// specKeyOf resolves a prepared spec's memoized content key, deriving and
// caching it on first use so the write-through after a miss never re-hashes.
func (s *Store) specKeyOf(kind string, ps *bench.PreparedSpec) string {
	if ps.Key == "" {
		ps.Key = key(s.tag, kind, ps.Spec)
	}
	return ps.Key
}

// LookupTrialSpec implements bench.TrialStore: the spec is already
// canonicalized, and the derived key is memoized on ps for the put.
func (s *Store) LookupTrialSpec(ps *bench.PreparedSpec) (bench.Result, bool) {
	var res bench.Result
	return res, s.lookupKey(KindTrial, s.specKeyOf(KindTrial, ps), &res)
}

// StoreTrialSpec implements bench.TrialStore.
func (s *Store) StoreTrialSpec(ps *bench.PreparedSpec, res bench.Result) error {
	return s.putKey(KindTrial, ps.Spec, s.specKeyOf(KindTrial, ps), &res)
}

// LookupScenarioSpec implements bench.TrialStore.
func (s *Store) LookupScenarioSpec(ps *bench.PreparedSpec) (bench.ScenarioResult, bool) {
	var res bench.ScenarioResult
	return res, s.lookupKey(KindScenario, s.specKeyOf(KindScenario, ps), &res)
}

// StoreScenarioSpec implements bench.TrialStore.
func (s *Store) StoreScenarioSpec(ps *bench.PreparedSpec, res bench.ScenarioResult) error {
	return s.putKey(KindScenario, ps.Spec, s.specKeyOf(KindScenario, ps), &res)
}

// Entry is one fully decoded store entry. Exactly one of the (Workload,
// Result) and (Scenario, ScenarioResult) pairs is set, per Kind.
type Entry struct {
	Key  string
	Tag  string
	Kind string

	Workload *bench.Workload
	Result   *bench.Result

	Scenario       *bench.ScenarioWorkload
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

	Workload *bench.Workload         // KindTrial
	Scenario *bench.ScenarioWorkload // KindScenario

	rawResult json.RawMessage
}

// Seed returns the entry's spec seed.
func (e *SpecEntry) Seed() uint64 {
	if e.Kind == KindScenario {
		return e.Scenario.Seed
	}
	return e.Workload.Seed
}

// Throughput decodes the raw result and returns its throughput. Every
// entry SpecEntries returns decodes (verifyPayload checks it), so the zero
// for a result that does not is never a replica's throughput.
func (e *SpecEntry) Throughput() float64 {
	full, err := e.Decode()
	if err != nil {
		return 0
	}
	if full.ScenarioResult != nil {
		return full.ScenarioResult.Throughput
	}
	return full.Result.Throughput
}

// Decode materializes the full entry, result payload included, with the
// result decoder of its kind.
func (e *SpecEntry) Decode() (Entry, error) {
	full := Entry{Key: e.Key, Tag: e.Tag, Kind: e.Kind, Workload: e.Workload, Scenario: e.Scenario}
	var err error
	if e.Kind == KindScenario {
		full.ScenarioResult = new(bench.ScenarioResult)
		err = full.ScenarioResult.UnmarshalJSON(e.rawResult)
	} else {
		full.Result = new(bench.Result)
		err = full.Result.UnmarshalJSON(e.rawResult)
	}
	if err != nil {
		return Entry{}, fmt.Errorf("decoding %s result: %w", e.Kind, err)
	}
	return full, nil
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
		e.Scenario = new(bench.ScenarioWorkload)
		if err := json.Unmarshal(env.Spec, e.Scenario); err != nil {
			return SpecEntry{}, fmt.Errorf("decoding scenario spec: %w", err)
		}
	default:
		return SpecEntry{}, fmt.Errorf("unknown entry kind %q", env.Kind)
	}
	return e, nil
}

// SpecEntries reads every sound entry (all engine tags) with specs decoded
// and results raw, in deterministic (sorted key) order.
func (s *Store) SpecEntries() ([]SpecEntry, error) {
	var entries []SpecEntry
	err := s.forEachPayload(func(e SpecEntry, _ []byte) error {
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Entries fully decodes every valid entry in the store (all engine tags),
// in deterministic order. Corrupt entries are skipped — Verify reports
// them.
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

// verifyPayload checks one entry payload end to end — the envelope parses,
// the claimed key matches the content address of (tag, kind, spec), the
// result payload matches its fingerprint, and the spec and the result both
// decode under its kind — and returns the entry with its spec decoded. So
// a sound entry is exactly one a lookup can serve.
func verifyPayload(name string, payload []byte) (SpecEntry, error) {
	env, err := parseEnvelope(payload)
	if err != nil {
		return SpecEntry{}, err
	}
	e, err := specEntryOf(name, env)
	if err != nil {
		return SpecEntry{}, err
	}
	if _, err := e.Decode(); err != nil {
		return SpecEntry{}, fmt.Errorf("result payload is not valid JSON for its kind: %w", err)
	}
	return e, nil
}

// Verify checks the integrity of every record in every segment: each is
// re-framed, re-checksummed, and its payload verified end to end
// (verifyPayload). A truncated or corrupt tail (the residue of a crashed
// flush) is reported once per segment. Segments are append-only, so a
// defective record stays on disk after a re-run heals its lookups with a
// newer one; Pack and GC rewrite the segments without it. It returns the
// number of sound records alongside the defects.
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
		end, serr := scanSegment(f, 0, seg, func(key string, loc recLoc, payload []byte) error {
			if _, verr := verifyPayload(key, payload); verr != nil {
				problems = append(problems, Problem{
					Path:   fmt.Sprintf("%s@%d", path, loc.off),
					Reason: verr.Error(),
				})
				return nil
			}
			sound++
			return nil
		})
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
	return sound, problems, nil
}

// GC removes store entries that can no longer serve lookups: entries
// written under a different engine tag than the current one, and corrupt
// entries. With all set, every entry goes. Survivors are compacted into a
// fresh segment, which also drops superseded records and crash residue. It
// returns the number of entries removed and kept.
func (s *Store) GC(all bool) (removed, kept int, err error) {
	if err := s.Flush(); err != nil {
		return 0, 0, err
	}
	if err := s.refresh(); err != nil {
		return 0, 0, err
	}
	for _, key := range s.indexKeys() {
		s.mu.RLock()
		loc, ok := s.index[key]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		keep := false
		if !all {
			if payload, rerr := s.readRecord(key, loc); rerr == nil {
				e, verr := verifyPayload(key, payload)
				keep = verr == nil && e.Tag == s.tag
			}
		}
		if keep {
			kept++
			continue
		}
		s.mu.Lock()
		delete(s.index, key)
		s.mu.Unlock()
		removed++
	}
	return removed, kept, s.compactSegments()
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
