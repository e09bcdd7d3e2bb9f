// Package latency is the streaming tail-latency subsystem: a fixed-layout,
// log-bucketed (HDR-style) cycle histogram with O(buckets) memory regardless
// of sample count, exact sample counts per bucket, and lossless merging
// across threads, phases, and trials.
//
// The paper's core critique of batch-based reclamation is tail latency —
// "occasional freeing of large batches causes long program interruptions" —
// which an append-every-sample-and-sort pipeline can only report as five
// percentiles over O(ops) memory. A Hist keeps the whole distribution in a
// fixed bucket layout instead, so the harness can record every operation of
// arbitrarily long trials without per-op allocation, merge per-thread
// recordings exactly (bucket counts add), and still answer any quantile to
// within one bucket's relative error (1/16, ~6.25%). A Tail bundles the
// histograms one measured run needs: the total distribution, a per-op-kind
// split (insert/delete/read), a per-cause split (useful work vs. an absorbed
// SMR reclamation scan vs. a conditional-access/validation retry), and the
// distribution of the reclamation pauses themselves — the instrument that
// says not just how long the tail is but which operations and what cause
// produced it.
package latency

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"condaccess/internal/jsonio"
)

// Bucket layout: values below subCount get one exact bucket each; every
// binary octave [2^e, 2^(e+1)) above that is split into subCount equal
// sub-buckets, so a bucket's width is at most 2^-subBits of its magnitude.
const (
	subBits  = 4
	subCount = 1 << subBits

	// NumBuckets is the fixed bucket-array length: subCount exact buckets
	// plus subCount per octave for exponents subBits..63.
	NumBuckets = subCount + (64-subBits)*subCount
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return subCount + (e-subBits)*subCount + int((v>>uint(e-subBits))&(subCount-1))
}

// BucketOf returns the index of the bucket v falls in.
func BucketOf(v uint64) int { return bucketIndex(v) }

// BucketBounds returns bucket i's value range [lo, hi] (inclusive). Every
// value in the range maps to i and no other value does.
func BucketBounds(i int) (lo, hi uint64) {
	if i < subCount {
		return uint64(i), uint64(i)
	}
	q := i - subCount
	e := subBits + q/subCount
	width := uint64(1) << uint(e-subBits)
	lo = 1<<uint(e) + uint64(q%subCount)*width
	return lo, lo + width - 1
}

// Hist is a log-bucketed histogram of uint64 samples (simulated cycles).
// The zero value is empty and ready to use. The bucket array ends at the
// highest non-empty bucket: Record and Merge extend it, growing its capacity
// as append does, by doubling up to NumBuckets. So a histogram holds only
// the buckets its samples reach, and reallocates at most ⌈log₂ NumBuckets⌉
// = 10 times after its first allocation. Buckets past the end of the array,
// up to its capacity, are always zero. Hist is not safe for concurrent use —
// the harness keeps one per simulated thread and merges.
type Hist struct {
	counts []uint64 // ends at the highest non-empty bucket
	n      uint64
	sum    uint64
	min    uint64 // valid when n > 0
	max    uint64
}

// extend makes counts at least n buckets long. When it reallocates, it at
// least doubles the capacity, up to NumBuckets.
func (h *Hist) extend(n int) {
	if n > cap(h.counts) {
		grown := make([]uint64, len(h.counts), max(n, min(2*cap(h.counts), NumBuckets)))
		copy(grown, h.counts)
		h.counts = grown
	}
	if n > len(h.counts) {
		h.counts = h.counts[:n]
	}
}

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	i := bucketIndex(v)
	if i >= len(h.counts) {
		h.extend(i + 1)
	}
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Merge folds o into h. Bucket counts add exactly, so merging per-thread,
// per-phase, or per-trial histograms loses nothing: the merged histogram is
// identical to one that recorded every sample directly.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	h.extend(len(o.counts))
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset empties the histogram, keeping the bucket allocation.
func (h *Hist) Reset() {
	clear(h.counts)
	h.counts = h.counts[:0]
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Sum returns the sum of all recorded samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Mean returns the exact sample mean (sums are tracked exactly, not
// reconstructed from buckets); zero when empty.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min and Max return the exact extreme samples (tracked alongside the
// buckets), zero when empty.
func (h *Hist) Min() uint64 { return h.min }
func (h *Hist) Max() uint64 { return h.max }

// Quantile returns an upper bound for the p-quantile sample: the upper edge
// of the bucket holding the sample of rank floor(p*(n-1)) — the same rank
// convention the exact-sort pipeline uses — clamped to the exact maximum.
// The true sample lies in the returned bucket, so the estimate is within one
// bucket's relative error (at most 1/16 of its magnitude) above the truth.
func (h *Hist) Quantile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	// The clamp must also catch NaN, which slips past both ordered
	// comparisons (p < 0 and p > 1 are false for NaN) and would make the
	// float-to-uint conversion below undefined. !(p >= 0) is true exactly
	// for negative p and NaN, pinning both to the 0-quantile.
	if !(p >= 0) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(h.n-1))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			_, hi := BucketBounds(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max // unreachable: counts sum to n
}

// Bucket is one non-empty histogram bucket, for CDF/figure export.
type Bucket struct {
	Lo, Hi uint64 // value range (inclusive)
	Count  uint64
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Hist) Buckets() []Bucket {
	var bs []Bucket
	for i, c := range h.counts {
		if c != 0 {
			lo, hi := BucketBounds(i)
			bs = append(bs, Bucket{Lo: lo, Hi: hi, Count: c})
		}
	}
	return bs
}

// Summary is the headline view of one histogram: the percentile row the
// harness tables print. P50..P999 are bucket upper bounds (within one
// bucket's relative error); Max and Mean are exact.
type Summary struct {
	Samples uint64  `json:"samples"`
	P50     uint64  `json:"p50"`
	P90     uint64  `json:"p90"`
	P99     uint64  `json:"p99"`
	P999    uint64  `json:"p999"`
	Max     uint64  `json:"max"`
	Mean    float64 `json:"mean"`
}

// Summary computes the headline percentiles.
func (h *Hist) Summary() Summary {
	if h.n == 0 {
		return Summary{}
	}
	return Summary{
		Samples: h.n,
		P50:     h.Quantile(0.50),
		P90:     h.Quantile(0.90),
		P99:     h.Quantile(0.99),
		P999:    h.Quantile(0.999),
		Max:     h.max,
		Mean:    h.Mean(),
	}
}

// MarshalJSON encodes the histogram sparsely (Walk). It calls Walk itself,
// not through jsonio.Append, so the Codec stays on the stack.
func (h Hist) MarshalJSON() ([]byte, error) {
	var c jsonio.Codec
	h.Walk(&c)
	return c.B, c.Err()
}

// UnmarshalJSON decodes the sparse form in one pass (Walk). On error h is
// left unchanged.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var out Hist
	if err := jsonio.Read(data, "latency: histogram", out.Walk); err != nil {
		return err
	}
	*h = out
	return nil
}

// Walk walks the histogram's sparse JSON form: the scalar stats, then the
// non-empty buckets as parallel index and count arrays (a trial touches a
// few dozen of the 976 buckets).
//
//	{"count":n,"sum":s,"min":lo,"max":hi,"idx":[i,...],"n":[c,...]}
//
// A writer leaves out every member but count when it is zero or empty, and
// writes the members in this order, so the bytes are deterministic and
// store envelopes round-trip bit for bit. A reader accepts that, with JSON
// whitespace between tokens, or a bare null (the zero Hist):
//
//	hist   = "null" | "{" [ member { "," member } ] "}"
//	member = "count" ":" uint | "sum" ":" uint | "min" ":" uint | "max" ":" uint
//	       | "idx" ":" list | "n" ":" list
//	list   = "[" [ uint { "," uint } ] "]"
//	uint   = "0" | [1-9][0-9]*   (at most 2^64-1)
//
// Member names are quoted and matched exactly; members appear at most once,
// in the order listed, and any may be omitted.
func (h *Hist) Walk(c *jsonio.Codec) {
	if c.Null(false) { // a reader's null is the zero Hist; a writer writes none
		return
	}
	c.Begin()
	if c.Opt("count", true) {
		c.Uint(&h.n)
	}
	if c.Opt("sum", h.sum != 0) {
		c.Uint(&h.sum)
	}
	if c.Opt("min", h.min != 0) {
		c.Uint(&h.min)
	}
	if c.Opt("max", h.max != 0) {
		c.Uint(&h.max)
	}
	if c.Decoding() {
		h.readBuckets(c)
		return
	}
	// The writer derives idx and n from the bucket array. It appends the
	// numbers itself, as Codec.Int and Uint would: a trial's histograms hold
	// hundreds of them, and those calls do not inline.
	if slices.ContainsFunc(h.counts, func(n uint64) bool { return n != 0 }) {
		c.Key("idx").Array()
		for i, n := range h.counts {
			if n != 0 {
				c.Elem()
				c.B = strconv.AppendInt(c.B, int64(i), 10)
			}
		}
		c.EndArray()
		c.Key("n").Array()
		for _, n := range h.counts {
			if n != 0 {
				c.Elem()
				c.B = strconv.AppendUint(c.B, n, 10)
			}
		}
		c.EndArray()
	}
	c.End()
}

// readBuckets reads the idx and n arrays straight into the bucket array,
// with no intermediate slices, and closes the object. idx must hold strictly
// increasing bucket indexes, n one non-zero count per index, and the counts
// must sum to count, so a decoded histogram keeps the invariants Quantile
// relies on. The bucket array is allocated once, at its exact length, so it
// ends at the highest non-empty bucket as a recorded one does; an empty
// histogram decodes to the zero Hist.
func (h *Hist) readBuckets(c *jsonio.Codec) {
	var idx [NumBuckets]uint16 // idx's bucket indexes, in order
	k := 0
	if c.Opt("idx", true) {
		c.Array()
		var i uint64
		for c.NextUint(&i) {
			if i >= NumBuckets || k > 0 && i <= uint64(idx[k-1]) {
				c.Fail("bucket index %d out of range or not increasing", i)
				break
			}
			idx[k] = uint16(i)
			k++
		}
	}
	if k > 0 && c.Err() == nil {
		h.counts = make([]uint64, idx[k-1]+1)
	}
	j := 0
	var total uint64
	if c.Opt("n", true) {
		c.Array()
		var v uint64
		for c.NextUint(&v) {
			switch {
			case j == k:
				c.Fail("more bucket counts than bucket indexes")
			case v == 0:
				c.Fail("zero bucket count")
			default:
				h.counts[idx[j]] = v
				j++
				var carry uint64
				if total, carry = bits.Add64(total, v, 0); carry != 0 {
					c.Fail("bucket counts overflow uint64")
				}
			}
		}
	}
	c.End()
	switch {
	case c.Err() != nil:
	case j < k:
		c.Fail("more bucket indexes than bucket counts")
	case total != h.n:
		c.Fail("bucket counts sum to %d, count is %d", total, h.n)
	}
}

// Kind tags a recorded operation by what it did: the set/stack/queue
// insert-like, delete-like, and read-like slots of the harness weight
// tables.
type Kind uint8

const (
	KindInsert Kind = iota
	KindDelete
	KindRead
)

// String returns the canonical lower-case name used everywhere an op kind
// is rendered: tail tables, trace event names, timeline CSV columns.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	default:
		return "read"
	}
}

// Attr tags a recorded operation by what its latency was spent on: plain
// useful work, absorbing an SMR reclamation scan/free pass (the paper's
// batching-pause critique), or restarting after a conditional-access or
// validation failure. Every operation gets exactly one attribution —
// reclamation takes precedence over retry — so the per-attribution counts
// partition the op count just like the per-kind counts do.
type Attr uint8

const (
	AttrUseful Attr = iota
	AttrReclaim
	AttrRetry
)

// String returns the canonical lower-case attribution name, shared by the
// tail tables and the trace event args.
func (a Attr) String() string {
	switch a {
	case AttrReclaim:
		return "reclaim"
	case AttrRetry:
		return "retry"
	default:
		return "useful"
	}
}

// Tail is the full tail-latency record of one measured window (a phase, a
// trial, or a merge of either): the total per-op latency distribution, its
// exact partitions by op kind and by attribution, and the distribution of
// the reclamation pauses themselves. Pause samples are pause durations, not
// op latencies, so Pause.Count is the number of ops that absorbed at least
// one scan (back-to-back scans within one op merge into one pause), not a
// partition of the op count.
type Tail struct {
	Total  Hist `json:"total"`
	Insert Hist `json:"insert"`
	Delete Hist `json:"delete"`
	Read   Hist `json:"read"`

	Useful  Hist `json:"useful"`
	Reclaim Hist `json:"reclaim"`
	Retry   Hist `json:"retry"`

	Pause Hist `json:"pause"`
}

// Kind returns the histogram for op kind k.
func (t *Tail) Kind(k Kind) *Hist {
	switch k {
	case KindInsert:
		return &t.Insert
	case KindDelete:
		return &t.Delete
	default:
		return &t.Read
	}
}

// Attr returns the histogram for attribution a.
func (t *Tail) Attr(a Attr) *Hist {
	switch a {
	case AttrReclaim:
		return &t.Reclaim
	case AttrRetry:
		return &t.Retry
	default:
		return &t.Useful
	}
}

// Record adds one operation's latency under its kind and attribution tags.
// Allocation-free once each touched histogram's bucket array reaches the
// bucket of the sample.
func (t *Tail) Record(k Kind, a Attr, v uint64) {
	t.Total.Record(v)
	t.Kind(k).Record(v)
	t.Attr(a).Record(v)
}

// RecordPause adds one reclamation-pause duration.
func (t *Tail) RecordPause(v uint64) { t.Pause.Record(v) }

// Merge folds o into t, histogram by histogram.
func (t *Tail) Merge(o *Tail) {
	if o == nil {
		return
	}
	t.Total.Merge(&o.Total)
	t.Insert.Merge(&o.Insert)
	t.Delete.Merge(&o.Delete)
	t.Read.Merge(&o.Read)
	t.Useful.Merge(&o.Useful)
	t.Reclaim.Merge(&o.Reclaim)
	t.Retry.Merge(&o.Retry)
	t.Pause.Merge(&o.Pause)
}

// Reset empties every histogram, keeping allocations (the harness reuses
// per-thread Tails across phases).
func (t *Tail) Reset() {
	t.Total.Reset()
	t.Insert.Reset()
	t.Delete.Reset()
	t.Read.Reset()
	t.Useful.Reset()
	t.Reclaim.Reset()
	t.Retry.Reset()
	t.Pause.Reset()
}

// tailMember is one of a Tail's histograms with its JSON name.
type tailMember struct {
	name string
	h    *Hist
}

// members lists t's histograms with their JSON names, in declaration order.
func (t *Tail) members() [8]tailMember {
	return [...]tailMember{
		{"total", &t.Total}, {"insert", &t.Insert}, {"delete", &t.Delete}, {"read", &t.Read},
		{"useful", &t.Useful}, {"reclaim", &t.Reclaim}, {"retry", &t.Retry}, {"pause", &t.Pause},
	}
}

// Walk walks t as the object encoding/json writes for it: its histograms
// in declaration order.
func (t *Tail) Walk(c *jsonio.Codec) {
	c.Begin()
	for _, m := range t.members() {
		m.h.Walk(c.Key(m.name))
	}
	c.End()
}

// Rows returns the display rows of the tail table in canonical order: the
// kind partition, the attribution partition, the pause distribution, and the
// total. Rows with zero samples are included so partitions read complete.
func (t *Tail) Rows() []struct {
	Name string
	Sum  Summary
} {
	type row = struct {
		Name string
		Sum  Summary
	}
	return []row{
		{KindInsert.String(), t.Insert.Summary()},
		{KindDelete.String(), t.Delete.Summary()},
		{KindRead.String(), t.Read.Summary()},
		{AttrUseful.String(), t.Useful.Summary()},
		{AttrReclaim.String(), t.Reclaim.Summary()},
		{AttrRetry.String(), t.Retry.Summary()},
		{"pause", t.Pause.Summary()},
		{"total", t.Total.Summary()},
	}
}

// String renders the tail table (used by the -tail reporting modes).
func (t *Tail) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %9s %9s %9s %9s %11s\n", "class", "count", "p50", "p99", "p99.9", "max", "mean")
	for _, r := range t.Rows() {
		fmt.Fprintf(&b, "%-8s %9d %9d %9d %9d %9d %11.1f\n",
			r.Name, r.Sum.Samples, r.Sum.P50, r.Sum.P99, r.Sum.P999, r.Sum.Max, r.Sum.Mean)
	}
	return b.String()
}
