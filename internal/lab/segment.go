// The packed store format. Entries append to segment files
// (segments/NNNN.pack) as length-prefixed, checksummed records, so a cold
// sweep's puts cost a few batched writes rather than one file per trial. The
// segments are the store's only on-disk state: Open scans every segment's
// frames into an in-memory index that maps content key to (segment, offset,
// length), so a warm lookup is a map probe plus one ReadAt.
//
// Durability is layered so nothing is ever trusted ahead of its bytes:
//
//   - Records become visible to other handles only after their segment
//     bytes are written and fsynced (one fsync per batched flush).
//   - A crash mid-flush leaves a truncated or checksum-corrupt tail
//     record; scans stop at the first bad frame, so the record is ignored,
//     later lookups miss, and the write-through heals by re-appending.
//   - A lookup checks its record's frame, CRC and key, so a location that
//     went stale under the handle reads as a miss, never as another entry.
//
// Segment files are never appended to by a later Open (each handle creates
// one fresh segment), so a dead segment's garbage tail can never hide
// records written after it.
package lab

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
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
// key rides in the frame so index scans never parse JSON, and the CRC
// covers it so a torn write cannot alias one key's payload to another.
const (
	recHeaderLen = 8
	recKeyLen    = 32
)

// maxRecordLen bounds a frame's body size on both sides of the format: the
// scan side caps a corrupt length field before it can provoke a giant
// allocation, and the write side (frameRecord) refuses to produce a frame the
// scan side would reject — an oversized record silently written would poison
// every later record in its segment, because scans stop at the first bad
// frame. A variable (not a const) so tests can shrink the bound without
// allocating gigabytes.
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

// frameRecord appends one framed record for (key, payload) to dst. The key
// must be the 64-hex-digit content address. The frame is built in place:
// the key is decoded straight into dst, and the checksum is taken over the
// appended key and payload.
func frameRecord(dst []byte, key string, payload []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, recHeaderLen)...)
	dst, err := hex.AppendDecode(dst, []byte(key))
	if err != nil || len(dst) != start+recHeaderLen+recKeyLen {
		return dst[:start], fmt.Errorf("lab: malformed content key %q", key)
	}
	n := recKeyLen + len(payload)
	if n > maxRecordLen {
		return dst[:start], fmt.Errorf("lab: record payload is %d bytes, over the %d-byte frame limit", len(payload), maxRecordLen-recKeyLen)
	}
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+recHeaderLen:], crcTable))
	return dst, nil
}

// checkRecord validates one framed record and returns its payload. buf
// must hold exactly the frame (header included).
func checkRecord(buf []byte) ([]byte, error) {
	if len(buf) < recHeaderLen+recKeyLen {
		return nil, errors.New("record shorter than its header")
	}
	n := int(binary.BigEndian.Uint32(buf[0:4]))
	if n != len(buf)-recHeaderLen {
		return nil, errors.New("record length does not match its frame")
	}
	if crc32.Checksum(buf[recHeaderLen:], crcTable) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, errors.New("record checksum mismatch")
	}
	return buf[recHeaderLen+recKeyLen:], nil
}

// keyDigits returns the hex digits of the content key a checked frame
// carries, on the stack: a scan converts them to the index's key string,
// and a lookup compares them with its key without allocating.
func keyDigits(frame []byte) (digits [2 * recKeyLen]byte) {
	hex.Encode(digits[:], frame[recHeaderLen:recHeaderLen+recKeyLen])
	return digits
}

// scanBufSize is the read buffer of one segment scan. A scan never holds a
// segment whole, only this buffer and one frame.
const scanBufSize = 64 << 10

// scanSegment reads framed records from r, which starts at byte offset from
// of segment seg, calling visit for each clean record. The payload visit
// gets is valid only during the call: one frame buffer serves the whole
// scan. It returns the offset one past the last clean record — the covered
// prefix — and stops silently at EOF, a truncated frame, or a checksum
// mismatch: anything past the first bad frame is unreachable garbage (a
// crashed flush's tail) until a repack.
func scanSegment(r io.Reader, from int64, seg int, visit func(key string, loc recLoc, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, scanBufSize)
	off := from
	var hdr [recHeaderLen]byte
	var frame []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, nil // EOF or torn header: clean prefix ends here
		}
		n := int(binary.BigEndian.Uint32(hdr[0:4]))
		if n < recKeyLen || n > maxRecordLen {
			return off, nil
		}
		if cap(frame) < recHeaderLen+n {
			frame = make([]byte, recHeaderLen+n)
		}
		frame = frame[:recHeaderLen+n]
		copy(frame, hdr[:])
		if _, err := io.ReadFull(br, frame[recHeaderLen:]); err != nil {
			return off, nil // truncated record
		}
		payload, err := checkRecord(frame)
		if err != nil {
			return off, nil // checksum-corrupt record
		}
		loc := recLoc{seg: seg, off: off, n: len(frame)}
		digits := keyDigits(frame)
		if err := visit(string(digits[:]), loc, payload); err != nil {
			return off, err
		}
		off += int64(loc.n)
	}
}

// flush thresholds: the append buffer is flushed (one write + one fsync)
// when it holds this many records or bytes, whichever comes first, and on
// Flush/Close.
const (
	flushRecords = 256
	flushBytes   = 1 << 20
)

// appender is a handle's one append buffer: framed records bound for the
// handle's own segment file, which it creates on its first put. Each flush
// is a single write + fsync on that segment.
type appender struct {
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

// append frames (key, payload) into the handle's append buffer, creating
// its segment file on first use, and flushes when the batch thresholds hit.
func (s *Store) append(key string, payload []byte) error {
	w := &s.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		f, seg, err := s.createSegment()
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
		return s.flushLocked()
	}
	return nil
}

// Flush forces every buffered record onto disk (one write and one fsync)
// and publishes it to the index. Lookups through this handle see buffered
// records even before a flush; other handles see them only after.
func (s *Store) Flush() error {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	return s.flushLocked()
}

// flushLocked empties the append buffer: one write, one fsync, then the
// records are published to the in-memory index (and dropped from the
// pending overlay) — never before their bytes are durable. The caller
// holds s.w.mu.
func (s *Store) flushLocked() error {
	w := &s.w
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
	s.fsyncNanos.Add(int64(time.Since(tSync)))
	s.flushNanos.Add(int64(time.Since(t0)))
	s.flushes.Add(1)
	s.bytesWritten.Add(uint64(len(w.buf)))
	records, bytes := len(w.recs), len(w.buf)
	w.size += int64(len(w.buf))
	w.buf = w.buf[:0]
	s.publish(w.recs, w.seg, w.size)
	w.recs = w.recs[:0]
	if s.OnFlush != nil {
		s.OnFlush(records, bytes)
	}
	return nil
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

// dropSegmentEntriesLocked removes every index entry located in seg. The
// caller holds s.mu.
func (s *Store) dropSegmentEntriesLocked(seg int) {
	for key, loc := range s.index {
		if loc.seg == seg {
			delete(s.index, key)
		}
	}
}

// refresh reconciles the in-memory index with the segments on disk:
// newly-appeared segment files are opened and scanned, and segments that
// grew past their covered prefix are scanned from there. Open builds the
// index with it; lookups never refresh (the point of the index is to avoid
// per-trial filesystem work); whole-store operations — Entries, Verify, GC,
// Pack — do, so they see every durable record, including ones another
// handle flushed.
func (s *Store) refresh() error {
	segs, err := s.listSegments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		path := s.segmentPath(seg)
		s.mu.Lock()
		f := s.readers[seg]
		cov := s.covered[seg]
		s.mu.Unlock()
		if f != nil {
			cur, err := os.Stat(path)
			if err != nil {
				return fmt.Errorf("lab: %w", err)
			}
			if old, err := f.Stat(); err != nil || !os.SameFile(old, cur) || cur.Size() < cov {
				// The file under this number is not the one indexed, or it
				// shrank below its indexed prefix: after a gc -all removes
				// every segment, the next handle numbers its segment 0000
				// again. Forget the old file and scan the new one.
				f.Close()
				s.mu.Lock()
				s.dropSegmentEntriesLocked(seg)
				delete(s.covered, seg)
				delete(s.readers, seg)
				s.mu.Unlock()
				f, cov = nil, 0
			}
		}
		if f == nil {
			f, err = os.Open(path)
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
		if st.Size() == cov {
			continue
		}
		end, err := scanSegment(io.NewSectionReader(f, cov, st.Size()-cov), cov, seg, func(key string, loc recLoc, _ []byte) error {
			s.mu.Lock()
			s.index[key] = loc
			delete(s.pending, key)
			s.mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
		s.mu.Lock()
		if end > s.covered[seg] {
			s.covered[seg] = end
		}
		s.mu.Unlock()
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

// errStaleRecord is readRecord's answer for a sound frame that holds
// another key than the one looked up.
var errStaleRecord = errors.New("lab: record at the indexed location holds another key")

// readRecord fetches and validates the record of key at loc: a single
// ReadAt, the frame's length and checksum checks, and a comparison of the
// frame's key with key. So a location that went stale (another process
// rewrote the segments under this handle) is an error, never another
// entry's record. The returned payload is the envelope JSON.
func (s *Store) readRecord(key string, loc recLoc) ([]byte, error) {
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
	payload, err := checkRecord(buf)
	if err != nil {
		return nil, err
	}
	if digits := keyDigits(buf); string(digits[:]) != key {
		return nil, errStaleRecord
	}
	return payload, nil
}

// Close flushes buffered records and releases every segment file handle.
// The store must not be used afterwards. A store abandoned without Close
// loses only its unflushed tail, which the next run re-simulates.
func (s *Store) Close() error {
	err := s.Flush()
	s.mu.Lock()
	for seg, f := range s.readers {
		f.Close()
		delete(s.readers, seg)
	}
	s.mu.Unlock()
	return err
}

// packRec is one (key, envelope payload) pair bound for a compacted
// segment.
type packRec struct {
	key     string
	payload []byte
}

// compactSegments rewrites the store's segments: every current index
// winner is written to one fresh segment and every old segment file is
// removed. Superseded records (heals, overwrites) and crash-truncated tails
// vanish in the rewrite. Callers must have flushed and refreshed.
// Compaction assumes the usual maintenance contract: no other handle is
// writing the store concurrently.
func (s *Store) compactSegments() error {
	var recs []packRec
	for _, key := range s.indexKeys() {
		s.mu.RLock()
		loc, ok := s.index[key]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		payload, err := s.readRecord(key, loc)
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
	// files. The append buffer, empty after the caller's flush, forgets its
	// removed segment, so the next put opens a fresh one.
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
	s.mu.Unlock()
	s.w.mu.Lock()
	if s.w.f != nil && s.w.seg != newSeg {
		s.w.f, s.w.size, s.w.seg = nil, 0, 0
	}
	s.w.mu.Unlock()
	for _, seg := range oldSegs {
		if seg == newSeg {
			continue
		}
		if err := os.Remove(s.segmentPath(seg)); err != nil {
			return fmt.Errorf("lab: removing old segment: %w", err)
		}
	}
	return nil
}

// Pack compacts the store in place: the whole keyspace lands in one fresh
// segment, and superseded records, corrupt records a re-run has healed, and
// crash residue are dropped. A warm sweep over a packed store opens one
// file however many trials it serves. It returns the number of packed
// entries.
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
