// The windowed sim-time metrics timeline: the cheap, always-affordable
// alternative to a full event trace. The simulated-cycle axis is cut into
// fixed windows and every completed operation lands its counters in the
// window its end cycle falls in — per-window op counts by kind, retry
// restarts, and absorbed reclamation-pause cycles. A Timeline is recorded
// per thread with zero per-op allocation once its windows exist, and merges
// exactly thread→phase→trial like latency.Tail, so a trial's timeline is
// identical whether it was simulated or replayed from the lab store.
package trace

import (
	"fmt"
	"io"

	"condaccess/internal/jsonio"
	"condaccess/internal/latency"
)

// DefaultWindow is the timeline window size in simulated cycles when a spec
// leaves it zero. Coarse enough that a realistic trial yields tens of
// windows, fine enough that a batching reclaimer's pause storm is visibly
// localized rather than averaged away.
const DefaultWindow = 50_000

// MinWindow bounds explicit window overrides from below. Windows far
// smaller than one operation would make the dense per-window arrays larger
// than the raw data they summarize.
const MinWindow = 1024

// Timeline is a windowed sim-time metrics series. The parallel slices are
// indexed by window number (window i covers cycles [i*Window, (i+1)*Window))
// and always share one length. A pause that spans a window boundary is
// charged wholly to the window its operation ends in — the same per-op delta
// attribution latency.Tail uses — so pause cycles sum exactly to the tail's
// pause histogram, at the cost of edge windows that can report more pause
// cycles than the window holds.
//
// All fields are exported and marshal in declaration order, so the JSON
// form (and hence the lab store envelope) is byte-deterministic.
type Timeline struct {
	Window  uint64   `json:"window"`
	Insert  []uint64 `json:"insert,omitempty"`
	Delete  []uint64 `json:"delete,omitempty"`
	Read    []uint64 `json:"read,omitempty"`
	Retries []uint64 `json:"retries,omitempty"`
	Pause   []uint64 `json:"pause,omitempty"`
}

// ResolveWindow maps a spec's window override to the effective window size.
func ResolveWindow(w uint64) uint64 {
	if w == 0 {
		return DefaultWindow
	}
	return w
}

// grow extends s to n elements, zeroing the extension (the backing array may
// hold stale values after a Reset). Amortized allocation-free.
func grow(s []uint64, n int) []uint64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// ensure makes every series at least n windows long.
func (t *Timeline) ensure(n int) {
	if len(t.Insert) >= n {
		return
	}
	t.Insert = grow(t.Insert, n)
	t.Delete = grow(t.Delete, n)
	t.Read = grow(t.Read, n)
	t.Retries = grow(t.Retries, n)
	t.Pause = grow(t.Pause, n)
}

// Windows returns the number of recorded windows.
func (t *Timeline) Windows() int { return len(t.Insert) }

// RecordOp lands one completed operation: its kind count, the retry
// restarts it absorbed, and the reclamation-pause cycles it absorbed, all in
// the window endCycle falls in. Allocation-free once that window exists.
func (t *Timeline) RecordOp(endCycle uint64, k latency.Kind, retries, pauseCycles uint64) {
	if t.Window == 0 {
		t.Window = DefaultWindow
	}
	i := int(endCycle / t.Window)
	t.ensure(i + 1)
	switch k {
	case latency.KindInsert:
		t.Insert[i]++
	case latency.KindDelete:
		t.Delete[i]++
	default:
		t.Read[i]++
	}
	t.Retries[i] += retries
	t.Pause[i] += pauseCycles
}

// Merge folds o into t window by window. Merging timelines with different
// window sizes is a harness bug — the windows no longer mean the same span
// of simulated time — so it panics rather than aggregating nonsense.
func (t *Timeline) Merge(o *Timeline) {
	if o == nil || (o.Window == 0 && o.Windows() == 0) {
		return
	}
	if t.Window == 0 {
		t.Window = o.Window
	}
	if t.Window != o.Window {
		panic(fmt.Sprintf("trace: merging timelines with windows %d and %d", t.Window, o.Window))
	}
	t.ensure(o.Windows())
	for i := range o.Insert {
		t.Insert[i] += o.Insert[i]
		t.Delete[i] += o.Delete[i]
		t.Read[i] += o.Read[i]
		t.Retries[i] += o.Retries[i]
		t.Pause[i] += o.Pause[i]
	}
}

// seriesMember is one of a Timeline's series with its JSON name.
type seriesMember struct {
	name   string
	series *[]uint64
}

// members lists t's series with their JSON names, in declaration order.
func (t *Timeline) members() [5]seriesMember {
	return [...]seriesMember{
		{"insert", &t.Insert}, {"delete", &t.Delete}, {"read", &t.Read},
		{"retries", &t.Retries}, {"pause", &t.Pause},
	}
}

// Walk walks t as the object encoding/json writes for it: members in
// declaration order, an empty series left out. A reader fails on series of
// different lengths, since every method here indexes them in parallel.
func (t *Timeline) Walk(c *jsonio.Codec) {
	c.Begin()
	c.Key("window").Uint(&t.Window)
	for _, m := range t.members() {
		if c.Opt(m.name, len(*m.series) > 0) {
			c.Uints(m.series)
		}
		if c.Decoding() && len(*m.series) != len(t.Insert) {
			c.Fail("timeline series %q holds %d windows, insert %d", m.name, len(*m.series), len(t.Insert))
		}
	}
	c.End()
}

// Reset empties the series, keeping their allocations (the harness reuses
// per-thread timelines across phases) and the window size.
func (t *Timeline) Reset() {
	t.Insert = t.Insert[:0]
	t.Delete = t.Delete[:0]
	t.Read = t.Read[:0]
	t.Retries = t.Retries[:0]
	t.Pause = t.Pause[:0]
}

// TotalOps returns the op count summed over all windows and kinds.
func (t *Timeline) TotalOps() uint64 {
	var n uint64
	for i := range t.Insert {
		n += t.Insert[i] + t.Delete[i] + t.Read[i]
	}
	return n
}

// WindowRow is one timeline window in display form.
type WindowRow struct {
	Index      int
	Start, End uint64 // cycle bounds [Start, End)
	Insert     uint64
	Delete     uint64
	Read       uint64
	Retries    uint64
	Pause      uint64
}

// Ops returns the row's total op count.
func (r WindowRow) Ops() uint64 { return r.Insert + r.Delete + r.Read }

// Rows returns every window in order, shared by the CLI tables, the figures
// CSV, and the tests.
func (t *Timeline) Rows() []WindowRow {
	w := ResolveWindow(t.Window)
	rows := make([]WindowRow, t.Windows())
	for i := range rows {
		rows[i] = WindowRow{
			Index:   i,
			Start:   uint64(i) * w,
			End:     uint64(i+1) * w,
			Insert:  t.Insert[i],
			Delete:  t.Delete[i],
			Read:    t.Read[i],
			Retries: t.Retries[i],
			Pause:   t.Pause[i],
		}
	}
	return rows
}

// WriteTable renders the timeline as an aligned text table, one row per
// window. Zero windows are printed too: a flat stretch of the time axis is
// information (nothing ran there), not noise.
func (t *Timeline) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-9s %12s %9s %8s %8s %8s %8s %10s\n",
		"window", "kcycles", "ops", "insert", "delete", "read", "retries", "pause")
	for _, r := range t.Rows() {
		fmt.Fprintf(w, "%-9d %5d-%-7d %9d %8d %8d %8d %8d %10d\n",
			r.Index, r.Start/1000, r.End/1000, r.Ops(), r.Insert, r.Delete, r.Read, r.Retries, r.Pause)
	}
}
