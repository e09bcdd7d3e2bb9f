package latency

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// sample pools spanning the exact region, several octaves, and the extremes.
func randomSamples(rng *rand.Rand, n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		switch rng.Intn(4) {
		case 0:
			vs[i] = uint64(rng.Intn(subCount)) // exact buckets
		case 1:
			vs[i] = uint64(rng.Intn(1 << 12))
		case 2:
			vs[i] = uint64(rng.Int63n(1 << 40))
		default:
			vs[i] = rng.Uint64()
		}
	}
	return vs
}

func fromSamples(vs []uint64) *Hist {
	var h Hist
	for _, v := range vs {
		h.Record(v)
	}
	return &h
}

// TestBucketLayout checks the index/bounds pair is a partition: every bucket
// contains exactly the values that map to it, buckets tile the uint64 range
// in order, and the relative width bound holds.
func TestBucketLayout(t *testing.T) {
	var prevHi uint64
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if i == 0 {
			if lo != 0 {
				t.Fatalf("bucket 0 starts at %d, want 0", lo)
			}
		} else if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo %d, want %d (buckets must tile)", i, lo, prevHi+1)
		}
		prevHi = hi
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(hi=%d) = %d, want %d", hi, got, i)
		}
		// One bucket's relative error bound: width <= lo/subCount above the
		// exact region.
		if lo >= subCount && hi-lo+1 > lo/subCount {
			t.Fatalf("bucket %d [%d,%d]: width %d exceeds lo/%d", i, lo, hi, hi-lo+1, subCount)
		}
	}
	if prevHi != ^uint64(0) {
		t.Fatalf("last bucket ends at %d, want 2^64-1", prevHi)
	}
}

// TestMergeAssociativeCommutative: merging is associative and commutative
// with exact count preservation — any merge tree over any ordering of the
// per-thread histograms yields the identical histogram.
func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([][]uint64, 5)
	var all []uint64
	for i := range parts {
		parts[i] = randomSamples(rng, 200+rng.Intn(300))
		all = append(all, parts[i]...)
	}

	direct := fromSamples(all)

	// Left fold in order.
	var leftFold Hist
	for _, p := range parts {
		leftFold.Merge(fromSamples(p))
	}
	// Right-leaning tree over a shuffled order.
	order := rng.Perm(len(parts))
	var tree Hist
	for i := len(order) - 1; i >= 0; i-- {
		sub := fromSamples(parts[order[i]])
		sub.Merge(&tree)
		tree = *sub
	}

	for name, h := range map[string]*Hist{"leftFold": &leftFold, "shuffledTree": &tree} {
		if h.Count() != uint64(len(all)) {
			t.Errorf("%s: count %d, want %d", name, h.Count(), len(all))
		}
		if h.Sum() != direct.Sum() || h.Min() != direct.Min() || h.Max() != direct.Max() {
			t.Errorf("%s: scalar stats diverge from direct recording", name)
		}
		if !reflect.DeepEqual(h.counts, direct.counts) {
			t.Errorf("%s: bucket counts diverge from direct recording", name)
		}
	}
}

// TestQuantileWithinOneBucket: for every probed quantile, the exact-sort
// value of the same rank must lie inside the bucket the histogram answers
// from — the "within one bucket's relative error" contract.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		vs := randomSamples(rng, 1+rng.Intn(4000))
		h := fromSamples(vs)
		sorted := slices.Clone(vs)
		slices.Sort(sorted)
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := sorted[int(p*float64(len(sorted)-1))]
			est := h.Quantile(p)
			if est < exact {
				t.Fatalf("p=%v: estimate %d below exact %d", p, est, exact)
			}
			lo, _ := BucketBounds(bucketIndex(est))
			if exact < lo {
				t.Fatalf("p=%v: exact %d not in estimate's bucket [lo %d, est %d]", p, exact, lo, est)
			}
		}
		if h.Quantile(1) != sorted[len(sorted)-1] {
			t.Fatalf("p=1 must be the exact maximum")
		}
	}
}

// TestQuantileEdgeCases pins Quantile's handling of out-of-domain p values
// (regression: NaN slipped past both ordered clamps, making the
// float-to-uint rank conversion undefined) and the empty-histogram case.
func TestQuantileEdgeCases(t *testing.T) {
	var empty Hist
	for _, p := range []float64{math.NaN(), math.Inf(-1), -1, 0, 0.5, 1, 2, math.Inf(1)} {
		if got := empty.Quantile(p); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %d, want 0", p, got)
		}
	}

	h := fromSamples([]uint64{5, 10, 20, 40, 80})
	p0, p1 := h.Quantile(0), h.Quantile(1)
	if p1 != h.Max() {
		t.Fatalf("Quantile(1) = %d, want exact max %d", p1, h.Max())
	}
	// NaN, -Inf, and any negative p clamp to the 0-quantile; +Inf and any
	// p > 1 clamp to the 1-quantile. None may panic or fall outside the
	// recorded range.
	for _, tc := range []struct {
		p    float64
		want uint64
	}{
		{math.NaN(), p0},
		{math.Inf(-1), p0},
		{-0.5, p0},
		{1.5, p1},
		{math.Inf(1), p1},
	} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// mallocs returns the heap allocations of n calls of f, counted exactly:
// testing.AllocsPerRun divides by n and rounds down, so it reads 0 for up to
// n-1 allocations.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // as AllocsPerRun does, leave out one-time set-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRecordAllocationFree pins the O(buckets) memory contract: once every
// bucket array reaches its last bucket, recording (and quantile queries)
// allocate nothing at all, so RecordLatency runs cost O(buckets) — not
// O(ops) — memory.
func TestRecordAllocationFree(t *testing.T) {
	var tl Tail
	// Warm-up: the largest sample takes every histogram's bucket array to
	// its last bucket.
	for k := KindInsert; k <= KindRead; k++ {
		for a := AttrUseful; a <= AttrRetry; a++ {
			tl.Record(k, a, math.MaxUint64)
		}
	}
	tl.RecordPause(math.MaxUint64)

	v := uint64(17)
	if n := mallocs(2000, func() {
		tl.Record(KindInsert, AttrReclaim, v)
		tl.RecordPause(v)
		v = v*2862933555777941757 + 3037000493 // spread across buckets
	}); n != 0 {
		t.Fatalf("2000 records after warm-up allocate %d times, want 0", n)
	}
	if n := mallocs(200, func() {
		_ = tl.Total.Quantile(0.99)
	}); n != 0 {
		t.Fatalf("200 quantile queries allocate %d times, want 0", n)
	}
}

// TestBucketArraysGrowByDoubling: a random stream into an empty Tail grows
// each histogram's bucket array by doubling, so after its first allocation
// a histogram reallocates at most ⌈log₂ NumBuckets⌉ = 10 times, and its
// capacity never exceeds NumBuckets.
func TestBucketArraysGrowByDoubling(t *testing.T) {
	const maxGrowths = 10
	if 1<<maxGrowths < NumBuckets || 1<<(maxGrowths-1) >= NumBuckets {
		t.Fatalf("maxGrowths %d is not ⌈log₂ %d⌉", maxGrowths, NumBuckets)
	}
	rng := rand.New(rand.NewSource(41))
	var tl Tail
	hists := tl.members()
	caps := make([]int, len(hists))
	growths := make([]int, len(hists))
	for i := 0; i < 20000; i++ {
		// Ascending magnitudes make the arrays grow often.
		v := rng.Uint64() >> (63 - min(i/300, 63))
		tl.Record(Kind(rng.Intn(3)), Attr(rng.Intn(3)), v)
		if rng.Intn(4) == 0 {
			tl.RecordPause(v)
		}
		for j, m := range hists {
			if c := cap(m.h.counts); c != caps[j] {
				if caps[j] != 0 {
					growths[j]++
				}
				caps[j] = c
			}
		}
	}
	for j, m := range hists {
		if growths[j] > maxGrowths || caps[j] > NumBuckets {
			t.Errorf("%s: %d reallocations, capacity %d; want at most %d and %d", m.name, growths[j], caps[j], maxGrowths, NumBuckets)
		}
		if caps[j] != NumBuckets {
			t.Errorf("%s: the stream did not reach the last bucket (capacity %d)", m.name, caps[j])
		}
	}
}

// TestHistJSONRoundTrip: the sparse JSON form reconstructs the histogram
// exactly (the store envelope persists these).
func TestHistJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var tl Tail
	for i := 0; i < 3000; i++ {
		tl.Record(Kind(rng.Intn(3)), Attr(rng.Intn(3)), randomSamples(rng, 1)[0])
	}
	tl.RecordPause(12345)

	data, err := json.Marshal(&tl)
	if err != nil {
		t.Fatal(err)
	}
	var back Tail
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, back) {
		t.Fatalf("tail JSON round trip lost information")
	}

	// Empty histograms stay empty (no bucket allocation) through the trip.
	var empty, emptyBack Hist
	data, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &emptyBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, emptyBack) {
		t.Fatalf("empty hist round trip: %+v != %+v", empty, emptyBack)
	}
	if emptyBack.counts != nil {
		t.Fatalf("empty hist decode allocated buckets")
	}

	// JSON whitespace between tokens (an indented encoding) and a bare
	// null decode too.
	data, err = json.MarshalIndent(&tl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var indented Tail
	if err := json.Unmarshal(data, &indented); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, indented) {
		t.Fatalf("indented tail JSON round trip lost information")
	}
	h := *fromSamples([]uint64{7})
	if err := h.UnmarshalJSON([]byte(" null ")); err != nil || !reflect.DeepEqual(h, Hist{}) {
		t.Fatalf("null decodes to %+v, %v; want the zero Hist", h, err)
	}

	// Corrupt or inconsistent histograms are rejected, not silently
	// mis-decoded, and leave the target unchanged. MarshalJSON writes none
	// of these; a duplicate index or a count/bucket mismatch would break the
	// invariant Quantile relies on (the bucket counts sum to the count).
	for _, bad := range []string{
		`{"count":1,"idx":[1,2],"n":[3]}`,                      // more indexes than counts
		`{"count":3,"idx":[1],"n":[1,2]}`,                      // more counts than indexes
		`{"count":1,"idx":[99999],"n":[1]}`,                    // out-of-range index
		`{"count":2,"idx":[3,3],"n":[1,1]}`,                    // duplicate index
		`{"count":2,"idx":[3,3],"n":[2]}`,                      // duplicate index, counts sum to count
		`{"count":2,"idx":[5,3],"n":[1,1]}`,                    // decreasing index
		`{"count":3,"idx":[3,5],"n":[1,1]}`,                    // counts do not sum to count
		`{"count":0,"idx":[3,5],"n":[18446744073709551615,1]}`, // counts overflow
		`{"count":1,"idx":[3,5],"n":[1,0]}`,                    // zero count
	} {
		h := *fromSamples([]uint64{7})
		want := *fromSamples([]uint64{7})
		if err := h.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		} else if !reflect.DeepEqual(h, want) {
			t.Errorf("rejected %s still changed the histogram", bad)
		}
	}
}

// histJSON is the sparse form Walk writes, as a struct encoding/json
// marshals and unmarshals: the reference both directions are held to.
type histJSON struct {
	Count uint64   `json:"count"`
	Sum   uint64   `json:"sum,omitempty"`
	Min   uint64   `json:"min,omitempty"`
	Max   uint64   `json:"max,omitempty"`
	Idx   []int    `json:"idx,omitempty"`
	N     []uint64 `json:"n,omitempty"`
}

// referenceMarshal is the encoder Walk replaced: encoding/json of
// the histogram's histJSON form.
func referenceMarshal(h *Hist) ([]byte, error) {
	j := histJSON{Count: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			j.Idx = append(j.Idx, i)
			j.N = append(j.N, c)
		}
	}
	return json.Marshal(j)
}

// referenceUnmarshal is the decoder UnmarshalJSON replaced: encoding/json
// into histJSON, with its length and range checks. It builds the bucket
// array trimmed to the highest listed index, as Record does. FuzzHistJSON
// holds the one-pass decoder to it.
func referenceUnmarshal(h *Hist, data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Idx) != len(j.N) {
		return fmt.Errorf("idx/count length mismatch: %d vs %d", len(j.Idx), len(j.N))
	}
	*h = Hist{n: j.Count, sum: j.Sum, min: j.Min, max: j.Max}
	if len(j.Idx) == 0 {
		return nil
	}
	for _, i := range j.Idx {
		if i < 0 || i >= NumBuckets {
			return fmt.Errorf("bucket index %d out of range", i)
		}
	}
	h.counts = make([]uint64, slices.Max(j.Idx)+1)
	for k, i := range j.Idx {
		h.counts[i] = j.N[k]
	}
	return nil
}

// FuzzHistJSON tests the one-pass decoder against the reference: anything
// it accepts, the reference accepts too, with a deeply equal Hist. (It may
// reject more: inconsistent counts, unknown or reordered members.) The
// input also seeds a random histogram whose MarshalJSON form must be the
// reference encoder's bytes and round-trip.
func FuzzHistJSON(f *testing.F) {
	for _, seed := range []string{
		`{"count":3,"sum":40,"min":5,"max":20,"idx":[5,17,18],"n":[1,1,1]}`,
		` { "count" : 2 , "idx" : [ 0 , 975 ] , "n" : [ 1 , 1 ] } `,
		`null`,
		`{}`,
		`{"count":0}`,
		`{"count":1,"idx":[1,2],"n":[3]}`,         // idx/n length mismatch
		`{"count":1,"idx":[99999],"n":[1]}`,       // out-of-range index
		`{"count":2,"idx":[3,3],"n":[1,1]}`,       // duplicate index
		`{"count":1,"idx":[1],"n":[1]} x`,         // trailing bytes
		`{"count":1,"idx":[1],"n":[1],"extra":1}`, // unknown member
		`{"count":-1}`,                            // negative number
		`{"count":1,"idx":[-0],"n":[1]}`,          // negative zero index
		`{"count":1.5}`,                           // float
		`{"count":18446744073709551616}`,          // uint64 overflow
		`{"count":1,"idx":[01],"n":[1]}`,          // leading zero
		`{"n":[1],"idx":[1],"count":1}`,           // reordered members
		`{"count":1,"idx":[3,5],"n":[1,0]}`,       // zero count
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Hist
		if err := got.UnmarshalJSON(data); err == nil {
			var want Hist
			if rerr := referenceUnmarshal(&want, data); rerr != nil {
				t.Fatalf("decoder accepted %q, the reference rejects it: %v", data, rerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q decodes to %+v, the reference to %+v", data, got, want)
			}
		}

		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		h := fromSamples(randomSamples(rng, rng.Intn(300)))
		enc, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if ref, err := referenceMarshal(h); err != nil || string(ref) != string(enc) {
			t.Fatalf("MarshalJSON writes %s, the reference %s (%v)", enc, ref, err)
		}
		var back Hist
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("MarshalJSON output %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(*h, back) {
			t.Fatalf("%s does not round-trip", enc)
		}
	})
}

// TestTailPartitions: Record keeps the kind and attribution partitions exact
// — each sums to Total, bucket for bucket.
func TestTailPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var tl Tail
	for i := 0; i < 5000; i++ {
		tl.Record(Kind(rng.Intn(3)), Attr(rng.Intn(3)), randomSamples(rng, 1)[0])
	}
	for name, group := range map[string][]*Hist{
		"kind": {&tl.Insert, &tl.Delete, &tl.Read},
		"attr": {&tl.Useful, &tl.Reclaim, &tl.Retry},
	} {
		var sum Hist
		for _, h := range group {
			sum.Merge(h)
		}
		if !reflect.DeepEqual(sum, tl.Total) {
			t.Errorf("%s partition does not sum to the total histogram", name)
		}
	}
}

// TestResetKeepsAllocation: Reset empties without dropping the bucket array
// (per-thread Tails are reused across phases), a reset histogram that
// records again counts nothing from before the reset, and a reset histogram
// merges as a no-op.
func TestResetKeepsAllocation(t *testing.T) {
	var h Hist
	h.Record(9)
	h.Record(1 << 40)
	buf := &h.counts[0]
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 || len(h.counts) != 0 {
		t.Fatal("reset histogram not empty")
	}
	h.Record(9)
	if &h.counts[0] != buf {
		t.Fatal("reset dropped the bucket allocation")
	}
	if len(h.counts) != BucketOf(9)+1 {
		t.Fatalf("bucket array holds %d buckets, want it to end at bucket %d", len(h.counts), BucketOf(9))
	}
	h.Record(1 << 40)
	if !reflect.DeepEqual(h, *fromSamples([]uint64{9, 1 << 40})) {
		t.Fatal("a reset histogram kept counts from before the reset")
	}
	var into Hist
	into.Record(5)
	empty := Hist{counts: make([]uint64, NumBuckets)}
	into.Merge(&empty)
	if into.Count() != 1 || into.Min() != 5 {
		t.Fatal("merging an empty histogram changed the target")
	}
}
