package lab

import (
	"strings"
	"testing"

	"condaccess/internal/bench"
)

// storeTrials runs each workload through a store-backed Runner so the store
// ends up holding one entry per workload, then closes the handle (its
// buffered records become durable in its segment).
func storeTrials(t *testing.T, dir string, ws ...bench.Workload) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	for _, w := range ws {
		if _, err := r.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func mergeW(seed uint64) bench.Workload {
	return bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 40, Seed: seed}
}

// TestMergeDedupAndIdempotence: merging two shard stores with an overlapping
// entry copies each key once, the merged store serves every workload warm,
// and re-merging the same sources is a no-op (all Skipped).
func TestMergeDedupAndIdempotence(t *testing.T) {
	w1, w2, w3 := mergeW(1), mergeW(2), mergeW(3)
	dirA, dirB := t.TempDir(), t.TempDir()
	storeTrials(t, dirA, w1, w2)
	storeTrials(t, dirB, w2, w3)

	srcA, err := OpenExisting(dirA)
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := OpenExisting(dirB)
	if err != nil {
		t.Fatal(err)
	}
	dstDir := t.TempDir()
	dst, err := Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Merge(dst, srcA, srcB)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 3 || stats.Skipped != 1 {
		t.Fatalf("merge added %d skipped %d, want 3/1", stats.Added, stats.Skipped)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []bench.Workload{w1, w2, w3} {
		if _, ok := re.LookupTrialSpec(prepared(t, w)); !ok {
			t.Fatalf("merged store misses workload seed %d", w.Seed)
		}
	}
	stats, err = Merge(re, srcA, srcB)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Skipped != 4 {
		t.Fatalf("re-merge added %d skipped %d, want 0/4", stats.Added, stats.Skipped)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRefusesForeignTag: a source written under a different engine tag
// must be refused — merging across engine versions would build a store that
// every single-tag consumer rejects.
func TestMergeRefusesForeignTag(t *testing.T) {
	w := mergeW(11)
	dstDir := t.TempDir()
	storeTrials(t, dstDir, w)

	srcDir := t.TempDir()
	old, err := openTagged(srcDir, "0000deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	res := bench.Result{W: w}
	if err := old.StoreTrialSpec(prepared(t, w), res); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenExisting(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Merge(dst, src)
	if err == nil || !strings.Contains(err.Error(), "engine tag") {
		t.Fatalf("foreign-tag source not refused: %v", err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRefusesMixedSource: a single source that itself mixes engine
// versions is refused before any entry is copied.
func TestMergeRefusesMixedSource(t *testing.T) {
	w := mergeW(13)
	srcDir := t.TempDir()
	storeTrials(t, srcDir, w)
	old, err := openTagged(srcDir, "0000deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.StoreTrialSpec(prepared(t, w), bench.Result{W: w}); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenExisting(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Merge(dst, src)
	if err == nil || !strings.Contains(err.Error(), "mixes 2 engine versions") {
		t.Fatalf("mixed-tag source not refused: %v", err)
	}
	if stats.Added != 0 {
		t.Fatalf("refused merge still copied %d entries", stats.Added)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRefusalCopiesNothing: when two sources disagree on the engine
// tag and the destination starts empty, the merge is refused before the
// first source is copied, so closing the destination makes nothing durable,
// and the error names both sources.
func TestMergeRefusalCopiesNothing(t *testing.T) {
	dirA := t.TempDir()
	storeTrials(t, dirA, mergeW(21), mergeW(22))
	dirB := t.TempDir()
	old, err := openTagged(dirB, "0000deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	w := mergeW(23)
	if err := old.StoreTrialSpec(prepared(t, w), bench.Result{W: w}); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	srcA, err := OpenExisting(dirA)
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := OpenExisting(dirB)
	if err != nil {
		t.Fatal(err)
	}
	dstDir := t.TempDir()
	dst, err := Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Merge(dst, srcA, srcB)
	if err == nil || !strings.Contains(err.Error(), dirA) || !strings.Contains(err.Error(), dirB) {
		t.Errorf("conflicting sources not refused by name: %v", err)
	}
	if stats.Added != 0 {
		t.Errorf("refused merge added %d entries", stats.Added)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	keys, err := re.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("refused merge left %d keys in the destination", len(keys))
	}
}
