// The packed store format. Entries append to a handful of segment files
// (segments/NNNN.pack) as length-prefixed, checksummed records, so a cold
// sweep's puts cost a few batched writes rather than one file per trial. An
// in-memory index maps content key to (segment, offset, length) so a warm
// lookup is a map probe plus one ReadAt, and a sidecar index file persists
// the map so reopening a store never rescans segment bytes it already
// indexed.
//
// Durability is layered so nothing is ever trusted ahead of its bytes:
//
//   - Records become visible to other handles only after their segment
//     bytes are written and fsynced (one fsync per batched flush).
//   - The sidecar is advisory: written on Close (and by maintenance
//     operations), rebuilt by scanning segments when missing or stale.
//     Open scans only the tail bytes the sidecar does not cover.
//   - A crash mid-flush leaves a truncated or checksum-corrupt tail
//     record; scans stop at the first bad frame, so the record is ignored,
//     later lookups miss, and the write-through heals by re-appending.
//
// Segment files are never appended to by a later Open (each handle creates
// fresh segments), so a dead segment's garbage tail can never hide records
// written after it.
package lab

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Record frame: [4-byte big-endian n][4-byte CRC32-C of key+payload]
// [32-byte binary content key][payload], where n = 32 + len(payload). The
// key rides in the frame so index rebuilds never parse JSON, and the CRC
// covers it so a torn write cannot alias one key's payload to another.
const (
	recHeaderLen = 8
	recKeyLen    = 32
)

// maxRecordLen bounds a frame's body size on both sides of the format: the
// scan side caps a corrupt length field before it can provoke a giant
// allocation, and the write side (frameRecord) refuses to produce a frame the
// scan side would reject — an oversized record silently written would poison
// every later record in its segment, because index rebuilds stop at the
// first bad frame. A variable (not a const) so tests can shrink the bound
// without allocating gigabytes.
var maxRecordLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recLoc locates one packed record: segment number, byte offset of the
// frame, and total frame length (header included).
type recLoc struct {
	seg int
	off int64
	n   int
}

// segmentName renders a segment number as its file name.
func segmentName(seg int) string { return fmt.Sprintf("%04d.pack", seg) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (int, bool) {
	base, ok := strings.CutSuffix(name, ".pack")
	if !ok {
		return 0, false
	}
	seg, err := strconv.Atoi(base)
	if err != nil || seg < 0 {
		return 0, false
	}
	return seg, true
}

func (s *Store) segmentsDir() string        { return filepath.Join(s.dir, "segments") }
func (s *Store) segmentPath(seg int) string { return filepath.Join(s.segmentsDir(), segmentName(seg)) }
func (s *Store) sidecarPath() string        { return filepath.Join(s.segmentsDir(), "index.json") }

// frameRecord appends one framed record for (key, payload) to dst. The key
// must be the 64-hex-digit content address.
func frameRecord(dst []byte, key string, payload []byte) ([]byte, error) {
	kb, err := hex.DecodeString(key)
	if err != nil || len(kb) != recKeyLen {
		return dst, fmt.Errorf("lab: malformed content key %q", key)
	}
	n := recKeyLen + len(payload)
	if n > maxRecordLen {
		return dst, fmt.Errorf("lab: record payload is %d bytes, over the %d-byte frame limit", len(payload), maxRecordLen-recKeyLen)
	}
	var hdr [recHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(0, crcTable, kb)
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, kb...)
	dst = append(dst, payload...)
	return dst, nil
}

// parseRecord validates one framed record and returns its key and payload.
// buf must hold exactly the frame (header included).
func parseRecord(buf []byte) (key string, payload []byte, err error) {
	if len(buf) < recHeaderLen+recKeyLen {
		return "", nil, errors.New("record shorter than its header")
	}
	n := int(binary.BigEndian.Uint32(buf[0:4]))
	if n != len(buf)-recHeaderLen {
		return "", nil, errors.New("record length does not match its frame")
	}
	if crc32.Checksum(buf[recHeaderLen:], crcTable) != binary.BigEndian.Uint32(buf[4:8]) {
		return "", nil, errors.New("record checksum mismatch")
	}
	return hex.EncodeToString(buf[recHeaderLen : recHeaderLen+recKeyLen]), buf[recHeaderLen+recKeyLen:], nil
}

// scanSegment reads framed records from r starting at byte offset from,
// calling visit for each clean record. It returns the offset one past the
// last clean record — the covered prefix — and stops silently at EOF, a
// truncated frame, or a checksum mismatch: anything past the first bad
// frame is unreachable garbage (a crashed flush's tail) until a repack.
func scanSegment(r io.Reader, from int64, visit func(key string, loc recLoc, payload []byte) error, seg int) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	off := from
	var hdr [recHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, nil // EOF or torn header: clean prefix ends here
		}
		n := int(binary.BigEndian.Uint32(hdr[0:4]))
		if n < recKeyLen || n > maxRecordLen {
			return off, nil
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return off, nil // truncated record
		}
		frame := append(hdr[:], body...)
		key, payload, err := parseRecord(frame)
		if err != nil {
			return off, nil // checksum-corrupt record
		}
		loc := recLoc{seg: seg, off: off, n: recHeaderLen + n}
		if err := visit(key, loc, payload); err != nil {
			return off, err
		}
		off += int64(loc.n)
	}
}

// flush thresholds: a writer's buffer is flushed (one write + one fsync)
// when it holds this many records or bytes, whichever comes first, and on
// Flush/Close.
const (
	flushRecords = 256
	flushBytes   = 1 << 20
)

// segmentWriter is one append stripe: a buffer of framed records bound for
// one segment file. Puts are striped across a few writers by key hash so
// concurrent pool workers append without contending on one buffer; each
// flush is a single write + fsync on that writer's segment.
type segmentWriter struct {
	st *Store

	mu   sync.Mutex
	seg  int
	f    *os.File
	size int64 // durable (written + fsynced) bytes
	buf  []byte
	recs []pendingRec
}

// pendingRec is one buffered record's future index entry.
type pendingRec struct {
	key string
	loc recLoc
}

// append frames (key, payload) into the writer's buffer, creating the
// segment file on first use, and flushes when the batch thresholds hit.
func (w *segmentWriter) append(key string, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		f, seg, err := w.st.createSegment()
		if err != nil {
			return err
		}
		w.f, w.seg = f, seg
	}
	off := w.size + int64(len(w.buf))
	buf, err := frameRecord(w.buf, key, payload)
	if err != nil {
		return err
	}
	w.recs = append(w.recs, pendingRec{key: key, loc: recLoc{seg: w.seg, off: off, n: len(buf) - len(w.buf)}})
	w.buf = buf
	if len(w.recs) >= flushRecords || len(w.buf) >= flushBytes {
		return w.flushLocked()
	}
	return nil
}

// flush empties the writer's buffer: one write, one fsync, then the
// records are published to the store's in-memory index (and dropped from
// the pending overlay) — never before their bytes are durable.
func (w *segmentWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *segmentWriter) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	// Flush timing is recorded at this granularity — once per batch, never
	// per put — with the fsync share broken out: fsync latency is where a
	// slow disk shows up first.
	t0 := time.Now()
	if _, err := w.f.WriteAt(w.buf, w.size); err != nil {
		return fmt.Errorf("lab: appending segment %s: %w", segmentName(w.seg), err)
	}
	tSync := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("lab: syncing segment %s: %w", segmentName(w.seg), err)
	}
	st := w.st
	st.fsyncNanos.Add(int64(time.Since(tSync)))
	st.flushNanos.Add(int64(time.Since(t0)))
	st.flushes.Add(1)
	st.bytesWritten.Add(uint64(len(w.buf)))
	records, bytes := len(w.recs), len(w.buf)
	w.size += int64(len(w.buf))
	w.buf = w.buf[:0]
	st.publish(w.recs, w.seg, w.size)
	w.recs = w.recs[:0]
	if st.OnFlush != nil {
		st.OnFlush(records, bytes)
	}
	return nil
}

// sidecar is the on-disk form of the in-memory index. Entries map content
// key to [segment, offset, length]; Covered records how many bytes of each
// segment the entries describe, so Open scans only bytes past that prefix.
type sidecar struct {
	Version int                 `json:"version"`
	Covered map[string]int64    `json:"covered"`
	Entries map[string][3]int64 `json:"entries"`
}

// writeSidecar persists the current in-memory index atomically. Callers
// must hold no store locks.
func (s *Store) writeSidecar() error {
	s.mu.Lock()
	sc := sidecar{Version: 1, Covered: map[string]int64{}, Entries: make(map[string][3]int64, len(s.index))}
	for seg, cov := range s.covered {
		sc.Covered[strconv.Itoa(seg)] = cov
	}
	for key, loc := range s.index {
		sc.Entries[key] = [3]int64{int64(loc.seg), loc.off, int64(loc.n)}
	}
	s.dirty = false
	s.mu.Unlock()
	data, err := json.Marshal(sc)
	if err != nil {
		return fmt.Errorf("lab: encoding index sidecar: %w", err)
	}
	if err := os.MkdirAll(s.segmentsDir(), 0o755); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	tmp, err := os.CreateTemp(s.segmentsDir(), ".index-*")
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	s.opens.Add(1)
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Close()
		if err == nil {
			return os.Rename(tmp.Name(), s.sidecarPath())
		}
	} else {
		tmp.Close()
	}
	os.Remove(tmp.Name())
	return fmt.Errorf("lab: writing index sidecar: %w", err)
}

// loadSidecar reads the sidecar into the in-memory index. A missing
// sidecar is fine (empty index, full scan follows); an unparsable one is
// discarded the same way — it is advisory.
func (s *Store) loadSidecar() {
	data, err := os.ReadFile(s.sidecarPath())
	if err != nil {
		return
	}
	s.opens.Add(1)
	var sc sidecar
	if json.Unmarshal(data, &sc) != nil || sc.Version != 1 {
		return
	}
	for segStr, cov := range sc.Covered {
		seg, err := strconv.Atoi(segStr)
		if err != nil || cov < 0 {
			continue
		}
		s.covered[seg] = cov
	}
	for key, e := range sc.Entries {
		s.index[key] = recLoc{seg: int(e[0]), off: e[1], n: int(e[2])}
	}
}

// publish moves flushed records into the index and advances the covered
// prefix of their segment.
func (s *Store) publish(recs []pendingRec, seg int, covered int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		s.index[r.key] = r.loc
		delete(s.pending, r.key)
	}
	if covered > s.covered[seg] {
		s.covered[seg] = covered
	}
	s.dirty = true
}

// createSegment creates a fresh segment file with the next free number.
// O_EXCL guards against another handle (or process) racing to the same
// number; losers retry on the next one.
func (s *Store) createSegment() (*os.File, int, error) {
	if err := os.MkdirAll(s.segmentsDir(), 0o755); err != nil {
		return nil, 0, fmt.Errorf("lab: %w", err)
	}
	for {
		s.mu.Lock()
		seg := s.nextSeg
		s.nextSeg++
		s.mu.Unlock()
		f, err := os.OpenFile(s.segmentPath(seg), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("lab: creating segment: %w", err)
		}
		s.opens.Add(1)
		s.mu.Lock()
		s.readers[seg] = f
		s.mu.Unlock()
		return f, seg, nil
	}
}

// writer picks the append stripe for key.
func (s *Store) writer(key string) *segmentWriter {
	// The key is hex of a SHA-256, so its first byte is already uniform.
	i := 0
	if len(key) > 0 {
		i = int(key[0]) % len(s.writers)
	}
	return s.writers[i]
}

// listSegments returns the numbers of every segment file on disk, sorted.
func (s *Store) listSegments() ([]int, error) {
	ents, err := os.ReadDir(s.segmentsDir())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lab: listing segments: %w", err)
	}
	var segs []int
	for _, e := range ents {
		if seg, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			segs = append(segs, seg)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// dropSegmentEntries removes every index entry located in seg. Caller
// holds s.mu.
func (s *Store) dropSegmentEntriesLocked(seg int) {
	for key, loc := range s.index {
		if loc.seg == seg {
			delete(s.index, key)
		}
	}
}

// refresh reconciles the in-memory index with the segments on disk:
// newly-appeared segment files are opened and scanned, and segments that
// grew past their covered prefix are scanned from there. Lookups never
// refresh (the point of the index is to avoid per-trial filesystem work);
// whole-store operations — Entries, Verify, GC, Pack — do, so they see
// every durable record, including ones another handle flushed.
func (s *Store) refresh() error {
	segs, err := s.listSegments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		s.mu.Lock()
		f := s.readers[seg]
		cov := s.covered[seg]
		s.mu.Unlock()
		if f == nil {
			f, err = os.Open(s.segmentPath(seg))
			if err != nil {
				return fmt.Errorf("lab: opening segment: %w", err)
			}
			s.opens.Add(1)
			s.mu.Lock()
			s.readers[seg] = f
			if seg >= s.nextSeg {
				s.nextSeg = seg + 1
			}
			s.mu.Unlock()
		}
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("lab: %w", err)
		}
		if st.Size() < cov {
			// The file shrank below its indexed prefix: the sidecar is from
			// another lineage of this directory. Distrust it for this segment
			// and rescan from the start.
			s.mu.Lock()
			s.dropSegmentEntriesLocked(seg)
			delete(s.covered, seg)
			s.dirty = true
			s.mu.Unlock()
			cov = 0
		}
		if st.Size() == cov {
			continue
		}
		end, err := scanSegment(io.NewSectionReader(f, cov, st.Size()-cov), cov, func(key string, loc recLoc, _ []byte) error {
			s.mu.Lock()
			s.index[key] = loc
			delete(s.pending, key)
			s.dirty = true
			s.mu.Unlock()
			return nil
		}, seg)
		if err != nil {
			return err
		}
		if end > cov {
			s.mu.Lock()
			if end > s.covered[seg] {
				s.covered[seg] = end
				s.dirty = true
			}
			s.mu.Unlock()
		}
	}
	// Entries whose segment vanished (another handle's gc/pack) can no
	// longer serve reads; drop them so lookups fall through cleanly.
	live := map[int]bool{}
	for _, seg := range segs {
		live[seg] = true
	}
	s.mu.Lock()
	for key, loc := range s.index {
		if !live[loc.seg] {
			delete(s.index, key)
			s.dirty = true
		}
	}
	for seg, f := range s.readers {
		if !live[seg] {
			f.Close()
			delete(s.readers, seg)
			delete(s.covered, seg)
		}
	}
	s.mu.Unlock()
	return nil
}

// readRecord fetches and validates one packed record: a single ReadAt plus
// an in-memory checksum check. The returned payload is the envelope JSON.
func (s *Store) readRecord(loc recLoc) ([]byte, error) {
	s.mu.RLock()
	f := s.readers[loc.seg]
	s.mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("lab: segment %s not open", segmentName(loc.seg))
	}
	buf := make([]byte, loc.n)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("lab: reading record: %w", err)
	}
	_, payload, err := parseRecord(buf)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// Flush forces every buffered record onto disk (one fsync per non-empty
// stripe) and publishes it to the index. Lookups through this handle see
// buffered records even before a flush; other handles see them only after.
func (s *Store) Flush() error {
	for _, w := range s.writers {
		if err := w.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes buffered records, persists the index sidecar, and releases
// every segment file handle. The store must not be used afterwards.
// Closing is what makes a batched run's entries cheap to reopen — a store
// abandoned without Close loses only its unflushed tail and its sidecar
// currency, both of which the next Open repairs.
func (s *Store) Close() error {
	err := s.Flush()
	s.mu.Lock()
	dirty := s.dirty
	s.mu.Unlock()
	if err == nil && (dirty || s.sidecarMissing()) {
		err = s.writeSidecar()
	}
	s.mu.Lock()
	for seg, f := range s.readers {
		f.Close()
		delete(s.readers, seg)
	}
	s.mu.Unlock()
	return err
}

// sidecarMissing reports whether segments exist without a sidecar.
func (s *Store) sidecarMissing() bool {
	s.mu.Lock()
	n := len(s.index)
	s.mu.Unlock()
	if n == 0 {
		return false
	}
	_, err := os.Stat(s.sidecarPath())
	return err != nil
}

// RebuildIndex discards the in-memory index and the sidecar and rebuilds
// both by scanning every segment from its first byte (refresh, with
// nothing covered) — the recovery path for a missing, stale, or corrupt
// sidecar (calab index). It returns the number of indexed entries and
// scanned segments.
func (s *Store) RebuildIndex() (entries, segments int, err error) {
	if err := s.Flush(); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	s.index = map[string]recLoc{}
	s.covered = map[int]int64{}
	s.dirty = true
	s.mu.Unlock()
	if err := s.refresh(); err != nil {
		return 0, 0, err
	}
	if err := s.writeSidecar(); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index), len(s.readers), nil
}

// packRec is one (key, envelope payload) pair bound for a compacted
// segment.
type packRec struct {
	key     string
	payload []byte
}

// compactSegments rewrites the store's segments: every current index
// winner is written to one fresh segment, every old segment file is
// removed, and the sidecar is rewritten. Superseded records (heals,
// overwrites) and crash-truncated tails vanish in the rewrite. Callers must
// have flushed and refreshed. Compaction assumes the usual maintenance
// contract: no other handle is writing the store concurrently.
func (s *Store) compactSegments() error {
	var recs []packRec
	for _, key := range s.indexKeys() {
		s.mu.RLock()
		loc, ok := s.index[key]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		payload, err := s.readRecord(loc)
		if err != nil {
			continue // unreadable record: dropped by the rewrite
		}
		recs = append(recs, packRec{key: key, payload: payload})
	}

	oldSegs, err := s.listSegments()
	if err != nil {
		return err
	}

	// Write the compacted segment (none if nothing survives).
	index := map[string]recLoc{}
	covered := map[int]int64{}
	newSeg := -1
	if len(recs) > 0 {
		f, seg, err := s.createSegment()
		if err != nil {
			return err
		}
		newSeg = seg
		var buf []byte
		for _, r := range recs {
			start := len(buf)
			buf, err = frameRecord(buf, r.key, r.payload)
			if err != nil {
				return err
			}
			index[r.key] = recLoc{seg: seg, off: int64(start), n: len(buf) - start}
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("lab: writing packed segment: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("lab: syncing packed segment: %w", err)
		}
		covered[seg] = int64(len(buf))
	}

	// Swap the index to the compacted layout, then remove the replaced
	// files. Writers pointed at removed segments are reset so their next
	// append opens a fresh segment.
	s.mu.Lock()
	s.index = index
	s.covered = covered
	for seg, f := range s.readers {
		if seg == newSeg {
			continue
		}
		f.Close()
		delete(s.readers, seg)
	}
	s.dirty = true
	s.mu.Unlock()
	for _, w := range s.writers {
		w.mu.Lock()
		if w.f != nil && w.seg != newSeg {
			w.f, w.size, w.seg = nil, 0, 0
		}
		w.mu.Unlock()
	}
	for _, seg := range oldSegs {
		if seg == newSeg {
			continue
		}
		if err := os.Remove(s.segmentPath(seg)); err != nil {
			return fmt.Errorf("lab: removing old segment: %w", err)
		}
	}
	return s.writeSidecar()
}

// Pack compacts the store in place: the whole keyspace lands in one fresh
// segment behind a freshly written sidecar, and superseded records, corrupt
// records a re-run has healed, and crash residue are dropped. A warm sweep
// over a packed store opens O(1) files however many trials it serves. It
// returns the number of packed entries.
func (s *Store) Pack() (packed int, err error) {
	if err := s.Flush(); err != nil {
		return 0, err
	}
	if err := s.refresh(); err != nil {
		return 0, err
	}
	if err := s.compactSegments(); err != nil {
		return 0, err
	}
	s.mu.RLock()
	packed = len(s.index)
	s.mu.RUnlock()
	return packed, nil
}
