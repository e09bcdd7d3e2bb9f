// Store merging: the union of stores filled elsewhere. Shards run by hand
// (`cabench -shard I/N`) on other hosts or schedules fill stores of their
// own; Merge folds them into one, after which a warm re-run of the full
// sweep against the merged store executes zero simulator trials. Shards on
// one host need no merge: each handle appends to a segment of its own, so
// they can share one store, as `cabench -farm` workers do. Entries are
// content-addressed, so merging is pure set union with per-key dedup — two
// stores can never disagree about a key's value (same engine tag + same
// spec => same serialized result), and re-merging is idempotent.
package lab

import "fmt"

// MergeStats reports one Merge call's traffic.
type MergeStats struct {
	// Added counts entries copied into the destination; Skipped counts
	// source entries the destination already held (per-key dedup).
	Added, Skipped int
}

// Merge copies every sound entry of the src stores into dst, skipping keys
// dst already holds. Copied entries land in dst's append buffer (the
// caller's Close makes them durable in dst's segment).
//
// Engine-tag discipline mirrors SnapshotCells: a source that mixes engine
// versions is refused, and so is a source whose tag differs from the
// destination's entries (or, when the destination starts empty, from an
// earlier source's) — merging across engine versions would build a store
// that every single-tag consumer (diff, inspect statistics) then rejects.
// Every tag is checked before anything is copied, so a refused merge leaves
// the destination as it was. Corrupt source entries are skipped, like every
// whole-store read; Verify on the source reports them.
func Merge(dst *Store, srcs ...*Store) (MergeStats, error) {
	var stats MergeStats
	tag, err := soleTag(dst)
	if err != nil {
		return stats, fmt.Errorf("lab: merge destination %s: %w", dst.Dir(), err)
	}
	var first *Store // the source that set tag, when dst held no entry
	for _, src := range srcs {
		srcTag, err := soleTag(src)
		switch {
		case err != nil:
			return stats, fmt.Errorf("lab: merge source %s: %w", src.Dir(), err)
		case srcTag == "" || srcTag == tag: // empty, or the same version
		case tag == "":
			tag, first = srcTag, src
		case first != nil:
			return stats, fmt.Errorf("lab: merge sources %s and %s have engine tags %s and %s; one store per engine version (calab gc drops foreign entries)",
				first.Dir(), src.Dir(), tag, srcTag)
		default:
			return stats, fmt.Errorf("lab: merge source %s has engine tag %s, destination %s holds %s; one store per engine version (calab gc drops foreign entries)",
				src.Dir(), srcTag, dst.Dir(), tag)
		}
	}
	for _, src := range srcs {
		err := src.forEachPayload(func(e SpecEntry, payload []byte) error {
			if dst.has(e.Key) {
				stats.Skipped++
				return nil
			}
			if err := dst.putPayload(e.Key, payload); err != nil {
				return err
			}
			stats.Added++
			return nil
		})
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// soleTag returns the single engine tag of every sound entry in s ("" for an
// empty store), or an error when entries from several engine versions
// coexist — the SnapshotCells refusal, reused by Merge.
func soleTag(s *Store) (string, error) {
	tags := map[string]int{}
	err := s.forEachPayload(func(e SpecEntry, _ []byte) error {
		tags[e.Tag]++
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(tags) > 1 {
		return "", fmt.Errorf("mixes %d engine versions %v", len(tags), tags)
	}
	for tag := range tags {
		return tag, nil
	}
	return "", nil
}

// forEachPayload is the one whole-store walk: it visits every sound entry
// (verifyPayload) in sorted key order, with its spec decoded and its raw
// envelope payload. It flushes and refreshes first, so it sees every
// durable record, this handle's and others'. Corrupt entries are skipped —
// Verify reports them.
func (s *Store) forEachPayload(fn func(e SpecEntry, payload []byte) error) error {
	if err := s.Flush(); err != nil {
		return err
	}
	if err := s.refresh(); err != nil {
		return err
	}
	for _, key := range s.indexKeys() {
		s.mu.RLock()
		loc, ok := s.index[key]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		payload, err := s.readRecord(key, loc)
		if err != nil {
			continue
		}
		e, err := verifyPayload(key, payload)
		if err != nil {
			continue
		}
		if err := fn(e, payload); err != nil {
			return err
		}
	}
	return nil
}

// has reports whether key is currently served by this handle: buffered in
// the pending overlay or indexed in a segment.
func (s *Store) has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, pending := s.pending[key]
	_, indexed := s.index[key]
	return pending || indexed
}

// putPayload writes one envelope payload under its content key through the
// handle's append buffer. Both putKey and Merge land here. A
// failed append drops the record from the pending overlay, so this handle
// cannot serve an entry that will never be durable.
func (s *Store) putPayload(key string, payload []byte) error {
	s.mu.Lock()
	s.pending[key] = payload
	s.mu.Unlock()
	if err := s.append(key, payload); err != nil {
		s.mu.Lock()
		delete(s.pending, key)
		s.mu.Unlock()
		return err
	}
	s.puts.Add(1)
	return nil
}

// Keys returns the content keys of every sound entry in the store, sorted.
func (s *Store) Keys() ([]string, error) {
	var keys []string
	err := s.forEachPayload(func(e SpecEntry, _ []byte) error {
		keys = append(keys, e.Key)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}
