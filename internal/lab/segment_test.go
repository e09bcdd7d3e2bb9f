package lab

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"condaccess/internal/bench"
)

// trialW builds a cheap stationary workload distinguished only by seed.
func trialW(seed uint64) bench.Workload {
	return bench.Workload{
		DS: "list", Scheme: "ca", Threads: 1, KeyRange: 16,
		UpdatePct: 50, OpsPerThread: 30, Seed: seed,
	}
}

// TestStoreStatsString: the traffic line must say "no traffic" when the
// handle served no lookups — "0% warm" would read as a fully cold run to the
// CI greps — and keep the exact hit/miss format otherwise.
func TestStoreStatsString(t *testing.T) {
	cases := []struct {
		s    StoreStats
		want string
	}{
		{StoreStats{}, "store: no traffic"},
		{StoreStats{Puts: 3, Opens: 7}, "store: no traffic"}, // puts/opens alone are not lookups
		{StoreStats{Hits: 8}, "store: 8 hits, 0 misses (100% warm)"},
		{StoreStats{Misses: 8}, "store: 0 hits, 8 misses (0% warm)"},
		{StoreStats{Hits: 3, Misses: 1}, "store: 3 hits, 1 misses (75% warm)"},
		// The flush suffix appears only when flush traffic happened, so warm
		// runs (and their CI greps) keep the bare line.
		{StoreStats{Hits: 1, Misses: 7, Flushes: 2, BytesWritten: 4096},
			"store: 1 hits, 7 misses (12% warm), 2 flushes (4.0 KiB written)"},
		{StoreStats{Misses: 3, BytesWritten: 100}, "store: 0 hits, 3 misses (0% warm), 0 flushes (100 B written)"},
		{StoreStats{Misses: 2, Flushes: 1, BytesWritten: 3 << 20},
			"store: 0 hits, 2 misses (0% warm), 1 flushes (3.0 MiB written)"},
	}
	for _, tc := range cases {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.s, got, tc.want)
		}
	}
}

// TestTruncatedTailRecovers simulates a crash mid-flush: every segment loses
// its final byte. The truncated tail record must be ignored (not served, not
// fatal), its lookups must miss, re-running must heal the store in place,
// and Pack must drop the crash residue for good.
func TestTruncatedTailRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 6
	r := bench.Runner{Store: st}
	var want []bench.Result
	for seed := uint64(1); seed <= trials; seed++ {
		res, err := r.Run(trialW(seed))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop one byte off every segment: each loses exactly its tail record.
	segs, err := st.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	for _, seg := range segs {
		path := st.segmentPath(seg)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-1); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st2.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != trials-len(segs) {
		t.Fatalf("entries after truncation = %d, want %d (one lost per segment)", len(entries), trials-len(segs))
	}
	if _, problems, err := st2.Verify(); err != nil || len(problems) != len(segs) {
		t.Fatalf("verify: %d problems (err %v), want one truncated-tail report per segment", len(problems), err)
	}

	// Healing: re-running misses exactly the lost trials and re-appends them.
	r2 := bench.Runner{Store: st2}
	for seed := uint64(1); seed <= trials; seed++ {
		res, err := r2.Run(trialW(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want[seed-1]) {
			t.Fatalf("seed %d: healed result diverges from original", seed)
		}
	}
	stats := st2.Stats()
	if stats.Misses != uint64(len(segs)) || stats.Hits != trials-uint64(len(segs)) {
		t.Fatalf("heal traffic %+v, want %d misses / %d hits", stats, len(segs), trials-len(segs))
	}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, ok := st2.LookupTrialSpec(prepared(t, trialW(seed))); !ok {
			t.Fatalf("seed %d still missing after heal", seed)
		}
	}

	// Pack drops the garbage tails; the store verifies clean.
	if packed, err := st2.Pack(); err != nil || packed != trials {
		t.Fatalf("pack: %d entries (err %v), want %d", packed, err, trials)
	}
	sound, problems, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sound != trials || len(problems) != 0 {
		t.Fatalf("after pack: %d sound, %d problems, want %d/0", sound, len(problems), trials)
	}
}

// TestTruncationAtEveryByte extends TestTruncatedTailRecovers from the last
// byte to every byte of a segment's last two frames, as a crash anywhere in
// a flush could leave it: each prefix opens without error, and exactly the
// trials whose frames it holds whole are warm.
func TestTruncationAtEveryByte(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 6
	r := bench.Runner{Store: st}
	specs := make([]*bench.PreparedSpec, trials)
	for i := range specs {
		if _, err := r.Run(trialW(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
		specs[i] = prepared(t, trialW(uint64(i+1)))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := st.listSegments()
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want one", segs, err)
	}
	data, err := os.ReadFile(st.segmentPath(segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // the offset one past each frame, in put order
	for off := 0; off < len(data); {
		off += recHeaderLen + int(binary.BigEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	if len(ends) != trials || ends[trials-1] != len(data) {
		t.Fatalf("frame ends %v in a %d-byte segment, want %d frames", ends, len(data), trials)
	}

	t.Logf("%d cuts, from byte %d of %d", len(data)-ends[trials-3]+1, ends[trials-3], len(data))
	dir := t.TempDir()
	path := filepath.Join(dir, "segments", segmentName(segs[0]))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	for cut := ends[trials-3]; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		for i, ps := range specs {
			if _, ok := cs.LookupTrialSpec(ps); ok != (ends[i] <= cut) {
				t.Fatalf("cut at %d: seed %d (frame ends at %d) hit %v", cut, i+1, ends[i], ok)
			}
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptTailChecksumIgnored: a bit flipped in a segment's final record
// must fail the CRC — the scan at Open stops there, the record's lookups
// miss, and re-running heals.
func TestCorruptTailChecksumIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 3
	r := bench.Runner{Store: st}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, err := r.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := st.listSegments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (err %v)", segs, err)
	}
	path := st.segmentPath(segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // inside the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st2.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != trials-1 {
		t.Fatalf("entries after corruption = %d, want %d", len(entries), trials-1)
	}
	_, problems, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Reason, "tail") {
		t.Fatalf("verify problems = %+v, want one corrupt-tail report", problems)
	}

	r2 := bench.Runner{Store: st2}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, err := r2.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st2.Stats(); got.Misses != 1 || got.Hits != trials-1 {
		t.Fatalf("heal traffic %+v, want 1 miss / %d hits", got, trials-1)
	}
}

// TestConcurrentKeyedAppendsAndReads drives the handle's one append buffer
// and the keyed lookup path from many goroutines at once — the parallel-sweep shape,
// checked under -race: writers must see their own unflushed puts, and a
// concurrent reader probing the same keyspace must never tear.
func TestConcurrentKeyedAppendsAndReads(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	spec := func(g, i int) []byte {
		b, err := json.Marshal(map[string]int{"worker": g, "trial": i})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent keyed reader over the whole keyspace
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for g := 0; g < workers; g++ {
				for i := 0; i < per; i++ {
					ps := &bench.PreparedSpec{Spec: spec(g, i)}
					if res, ok := st.LookupTrialSpec(ps); ok && res.Throughput != float64(g*per+i) {
						t.Errorf("worker %d trial %d: read tore: %+v", g, i, res)
						return
					}
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < workers; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				ps := &bench.PreparedSpec{Spec: spec(g, i)}
				want := bench.Result{Throughput: float64(g*per + i)}
				if err := st.StoreTrialSpec(ps, want); err != nil {
					t.Error(err)
					return
				}
				// The writing handle must see its own put immediately, even
				// while it is still buffered.
				if got, ok := st.LookupTrialSpec(ps); !ok || got.Throughput != want.Throughput {
					t.Errorf("worker %d trial %d: own put invisible (ok=%v)", g, i, ok)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Puts != workers*per {
		t.Fatalf("puts = %d, want %d", got.Puts, workers*per)
	}
}

// TestWarmPackedSweepOpensNoFiles is the perf acceptance shape: a 540-trial
// sweep re-run against the store must serve every trial from the index
// without opening a single file past the one segment Open itself scanned —
// and reproduce the cold run's table byte for byte. The cold run, by one
// handle, leaves exactly that one segment.
func TestWarmPackedSweepOpensNoFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"}, Threads: []int{1, 2},
		Updates: []int{0, 50, 100}, KeyRange: 16, Ops: 20, Seed: 3, Trials: 45,
		Store: st,
	}
	const jobs = 2 * 2 * 3 * 45 // 540
	cold, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st2
	base := st2.Stats().Opens // one per segment, paid once at Open
	warm, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.Stats()
	if stats.Hits != jobs || stats.Misses != 0 {
		t.Fatalf("warm traffic %+v, want %d pure hits", stats, jobs)
	}
	if stats.Opens != base {
		t.Fatalf("warm sweep opened %d files beyond the %d at Open; packed lookups must be pure ReadAt", stats.Opens-base, base)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm packed sweep diverges from cold")
	}
	for _, u := range cfg.Updates {
		if a, b := bench.FormatTable(cold, u), bench.FormatTable(warm, u); a != b {
			t.Fatalf("u=%d: warm table not byte-identical", u)
		}
	}
	if n := len(segmentsOn(t, dir)); n != 1 || base != 1 {
		t.Fatalf("cold 540-trial run left %d segments and Open opened %d files, want 1 and 1", n, base)
	}
}

// segmentsOn lists segment files under dir.
func segmentsOn(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "segments", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTwoHandlesShareADirectory: two handles on one directory put disjoint
// trials concurrently, each into a segment of its own. A third Open scans
// both segments, one file open each, and serves every trial warm.
func TestTwoHandlesShareADirectory(t *testing.T) {
	dir := t.TempDir()
	const perHandle = 6
	var wg sync.WaitGroup
	for h := range 2 {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := bench.Runner{Store: st}
			for i := range perHandle {
				if _, err := r.Run(trialW(uint64(1 + h*perHandle + i))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	segs := segmentsOn(t, dir)
	if len(segs) != 2 {
		t.Fatalf("two handles left %d segments, want one each", len(segs))
	}
	if opens := st.Stats().Opens; opens != uint64(len(segs)) {
		t.Fatalf("Open opened %d files for %d segments", opens, len(segs))
	}
	r := bench.Runner{Store: st}
	for seed := uint64(1); seed <= 2*perHandle; seed++ {
		want, err := bench.Run(trialW(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(trialW(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: stored result diverges from a storeless run", seed)
		}
	}
	if s := st.Stats(); s.Hits != 2*perHandle || s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("third handle's traffic %+v, want %d pure hits", s, 2*perHandle)
	}
}

// TestStaleLocationIsAMiss: an index entry that points at another key's
// sound record, the state a handle is left in when another process rewrites
// the segments under it, must read as a miss. The trial re-simulates, its
// write-through heals the entry, and the next lookup hits with the right
// seed, never with the other key's result.
func TestStaleLocationIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := r.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	k1 := key(st.Tag(), KindTrial, prepared(t, trialW(1)).Spec)
	k2 := key(st.Tag(), KindTrial, prepared(t, trialW(2)).Spec)
	st.mu.Lock()
	st.index[k1] = st.index[k2]
	st.mu.Unlock()

	if res, ok := st.LookupTrialSpec(prepared(t, trialW(1))); ok {
		t.Fatalf("stale location served as a hit holding seed %d's result", res.W.Seed)
	}
	want, err := bench.Run(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	r = bench.Runner{Store: st}
	got, err := r.Run(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Misses != 2 || s.Puts != 1 {
		t.Fatalf("traffic %+v, want the stale entry missed and re-simulated", s)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-simulated result diverges from a storeless run")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	res, ok := st.LookupTrialSpec(prepared(t, trialW(1)))
	if !ok || res.W.Seed != 1 || !reflect.DeepEqual(res, want) {
		t.Fatalf("healed lookup: hit %v, seed %d; want a hit holding seed 1's result", ok, res.W.Seed)
	}
}

// TestRefreshFollowsAReusedSegmentNumber: after a gc -all removes every
// segment, the next handle numbers its segment 0000 again. A long-lived
// handle that had indexed the old 0000 must see, at its next whole-store
// walk, the entries of the new file and not those of the removed one.
func TestRefreshFollowsAReusedSegmentNumber(t *testing.T) {
	dir := t.TempDir()
	long, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer long.Close()
	if _, err := (&bench.Runner{Store: long}).Run(trialW(1)); err != nil {
		t.Fatal(err)
	}
	if err := long.Flush(); err != nil {
		t.Fatal(err)
	}
	if keys, err := long.Keys(); err != nil || len(keys) != 1 {
		t.Fatalf("keys = %v (err %v), want seed 1's", keys, err)
	}

	gc, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gc.GC(true); err != nil {
		t.Fatal(err)
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&bench.Runner{Store: next}).Run(trialW(2)); err != nil {
		t.Fatal(err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segmentsOn(t, dir); len(segs) != 1 || filepath.Base(segs[0]) != segmentName(0) {
		t.Fatalf("segments after gc -all and one put: %v, want %s alone", segs, segmentName(0))
	}

	keys, err := long.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := key(long.Tag(), KindTrial, prepared(t, trialW(2)).Spec)
	if len(keys) != 1 || keys[0] != want {
		t.Fatalf("long-lived handle sees keys %v, want only seed 2's %s", keys, want)
	}
}

// TestLazySpecEntriesDoNotDecodeResults: SpecEntry must carry the raw result
// until asked — Throughput() and Decode() decode it on demand.
func TestLazySpecEntriesDoNotDecodeResults(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	res, err := r.Run(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Workload == nil || e.Seed() != 1 {
		t.Fatalf("spec not decoded: %+v", e)
	}
	if got := e.Throughput(); got != res.Throughput {
		t.Fatalf("lazy throughput %v, want %v", got, res.Throughput)
	}
	full, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*full.Result, res) {
		t.Fatal("Decode() diverges from the stored result")
	}
	// A scenario-shaped raw result must partial-decode the same way.
	if fmt.Sprintf("%.2f", e.Throughput()) != fmt.Sprintf("%.2f", res.Throughput) {
		t.Fatal("throughput unstable across repeated lazy decodes")
	}
}

// TestFlushCountersAccumulate pins the cumulative flush statistics the
// store summary line and the run manifests surface: every durable segment
// flush bumps Flushes and BytesWritten, the OnFlush hook sees the same
// totals, and the timing counters are live.
func TestFlushCountersAccumulate(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hookFlushes, hookRecords, hookBytes int
	st.OnFlush = func(records, bytes int) {
		hookFlushes++
		hookRecords += records
		hookBytes += bytes
	}
	const trials = 5
	r := bench.Runner{Store: st}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, err := r.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Flushes == 0 || s.BytesWritten == 0 {
		t.Fatalf("flush counters empty after %d puts: %+v", trials, s)
	}
	if int(s.Flushes) != hookFlushes {
		t.Errorf("Flushes = %d, hook saw %d", s.Flushes, hookFlushes)
	}
	if hookRecords != trials {
		t.Errorf("hook records = %d, want %d (every put published once)", hookRecords, trials)
	}
	if s.BytesWritten != uint64(hookBytes) {
		t.Errorf("BytesWritten = %d, hook saw %d", s.BytesWritten, hookBytes)
	}
	if s.FlushNanos <= 0 || s.FsyncNanos <= 0 {
		t.Errorf("flush/fsync timings = %d/%d, want > 0", s.FlushNanos, s.FsyncNanos)
	}
	roll := s.Rollup()
	if roll.Flushes != s.Flushes || roll.BytesWritten != s.BytesWritten || roll.FsyncNanos != s.FsyncNanos {
		t.Errorf("Rollup diverges from Stats: %+v vs %+v", roll, s)
	}
}

// TestOversizedRecordRejectedAtWriteTime: frameRecord enforces the same
// length bound the scan side does. Without the write-side check, one
// oversized payload is silently framed, then poisons every later record in
// its segment on index rebuild (scans stop at the first bad frame). The put
// must fail loudly, leave no phantom entry in the pending overlay, and leave
// the segment cleanly scannable for the records around it.
func TestOversizedRecordRejectedAtWriteTime(t *testing.T) {
	old := maxRecordLen
	maxRecordLen = 4096
	t.Cleanup(func() { maxRecordLen = old })

	// frameRecord itself refuses the oversized payload.
	key := strings.Repeat("ab", 32)
	if _, err := frameRecord(nil, key, make([]byte, 8192)); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("frameRecord(oversized) err = %v, want frame-limit error", err)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StoreTrialSpec(prepared(t, trialW(1)), bench.Result{Throughput: 1}); err != nil {
		t.Fatal(err)
	}
	big := trialW(2)
	big.DS = "list" + strings.Repeat("x", 8192)
	if err := st.StoreTrialSpec(prepared(t, big), bench.Result{}); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("StoreTrialSpec(oversized) err = %v, want frame-limit error", err)
	}
	if _, ok := st.LookupTrialSpec(prepared(t, big)); ok {
		t.Fatal("rejected oversized entry still served from the pending overlay")
	}
	if err := st.StoreTrialSpec(prepared(t, trialW(3)), bench.Result{Throughput: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both small records survive, the segment verifies clean end to
	// end (no poisoned tail), and the oversized spec is still a miss.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.LookupTrialSpec(prepared(t, trialW(1))); !ok {
		t.Error("record before the rejected put is gone")
	}
	if _, ok := st2.LookupTrialSpec(prepared(t, trialW(3))); !ok {
		t.Error("record after the rejected put is gone")
	}
	if _, ok := st2.LookupTrialSpec(prepared(t, big)); ok {
		t.Error("oversized entry present after reopen")
	}
	sound, problems, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sound != 2 || len(problems) != 0 {
		t.Errorf("Verify = %d sound, %v problems; want 2 sound, none", sound, problems)
	}
}
