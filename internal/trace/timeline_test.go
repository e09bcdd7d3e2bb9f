package trace

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/jsonio"
	"condaccess/internal/latency"
)

func TestResolveWindow(t *testing.T) {
	if got := ResolveWindow(0); got != DefaultWindow {
		t.Errorf("ResolveWindow(0) = %d, want %d", got, DefaultWindow)
	}
	if got := ResolveWindow(4096); got != 4096 {
		t.Errorf("ResolveWindow(4096) = %d, want 4096", got)
	}
}

func TestTimelineRecordOpWindowMath(t *testing.T) {
	tl := &Timeline{Window: 1000}
	tl.RecordOp(0, latency.KindInsert, 0, 0)    // window 0 (first cycle)
	tl.RecordOp(999, latency.KindDelete, 2, 0)  // window 0 (last cycle)
	tl.RecordOp(1000, latency.KindRead, 0, 7)   // window 1 (boundary opens next)
	tl.RecordOp(5500, latency.KindInsert, 1, 3) // window 5, skipping 2..4

	if got := tl.Windows(); got != 6 {
		t.Fatalf("Windows() = %d, want 6", got)
	}
	if tl.Insert[0] != 1 || tl.Delete[0] != 1 || tl.Read[0] != 0 {
		t.Errorf("window 0 kinds = i%d/d%d/r%d, want i1/d1/r0", tl.Insert[0], tl.Delete[0], tl.Read[0])
	}
	if tl.Read[1] != 1 || tl.Pause[1] != 7 {
		t.Errorf("window 1 = read %d pause %d, want read 1 pause 7", tl.Read[1], tl.Pause[1])
	}
	for i := 2; i <= 4; i++ {
		if tl.Insert[i]+tl.Delete[i]+tl.Read[i]+tl.Retries[i]+tl.Pause[i] != 0 {
			t.Errorf("skipped window %d is not zero", i)
		}
	}
	if tl.Insert[5] != 1 || tl.Retries[5] != 1 || tl.Pause[5] != 3 {
		t.Errorf("window 5 = insert %d retries %d pause %d, want 1/1/3", tl.Insert[5], tl.Retries[5], tl.Pause[5])
	}
	if got := tl.TotalOps(); got != 4 {
		t.Errorf("TotalOps() = %d, want 4", got)
	}
}

func TestTimelineZeroWindowDefaults(t *testing.T) {
	var tl Timeline
	tl.RecordOp(DefaultWindow+1, latency.KindRead, 0, 0)
	if tl.Window != DefaultWindow {
		t.Errorf("Window = %d after recording on zero value, want %d", tl.Window, DefaultWindow)
	}
	if tl.Windows() != 2 || tl.Read[1] != 1 {
		t.Errorf("op did not land in window 1: windows %d, read %v", tl.Windows(), tl.Read)
	}
}

func TestTimelineMerge(t *testing.T) {
	a := &Timeline{Window: 2048}
	a.RecordOp(100, latency.KindInsert, 1, 5)
	b := &Timeline{Window: 2048}
	b.RecordOp(100, latency.KindDelete, 2, 7)
	b.RecordOp(5000, latency.KindRead, 0, 0) // b is longer than a

	a.Merge(b)
	if got := a.Windows(); got != 3 {
		t.Fatalf("merged Windows() = %d, want 3", got)
	}
	if a.Insert[0] != 1 || a.Delete[0] != 1 || a.Retries[0] != 3 || a.Pause[0] != 12 {
		t.Errorf("window 0 after merge = i%d/d%d retries %d pause %d, want 1/1/3/12",
			a.Insert[0], a.Delete[0], a.Retries[0], a.Pause[0])
	}
	if a.Read[2] != 1 {
		t.Errorf("window 2 read = %d, want 1", a.Read[2])
	}

	// Merging into an empty timeline adopts the source's window.
	var empty Timeline
	empty.Merge(b)
	if empty.Window != 2048 || empty.TotalOps() != 2 {
		t.Errorf("merge into empty: window %d ops %d, want 2048/2", empty.Window, empty.TotalOps())
	}

	// Merging nil or empty sources is a no-op.
	before := a.TotalOps()
	a.Merge(nil)
	a.Merge(&Timeline{})
	if a.TotalOps() != before {
		t.Error("merging nil/empty changed the timeline")
	}
}

func TestTimelineMergeWindowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched windows did not panic")
		}
	}()
	a := &Timeline{Window: 1024}
	b := &Timeline{Window: 2048}
	b.RecordOp(1, latency.KindRead, 0, 0)
	a.Merge(b)
}

func TestTimelineRecordOpAllocFree(t *testing.T) {
	tl := &Timeline{Window: 1024}
	tl.RecordOp(100*1024, latency.KindRead, 0, 0) // pre-size the windows
	n := testing.AllocsPerRun(200, func() {
		tl.RecordOp(50*1024, latency.KindInsert, 1, 2)
	})
	if n != 0 {
		t.Errorf("RecordOp allocated %.1f times per op once windows exist, want 0", n)
	}
}

func TestTimelineRows(t *testing.T) {
	tl := &Timeline{Window: 1000}
	tl.RecordOp(500, latency.KindInsert, 2, 3)
	tl.RecordOp(1500, latency.KindRead, 0, 0)
	rows := tl.Rows()
	want := []WindowRow{
		{Index: 0, Start: 0, End: 1000, Insert: 1, Retries: 2, Pause: 3},
		{Index: 1, Start: 1000, End: 2000, Read: 1},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("Rows() = %+v, want %+v", rows, want)
	}
	if rows[0].Ops() != 1 {
		t.Errorf("Ops() = %d, want 1", rows[0].Ops())
	}
}

func TestTimelineWriteTable(t *testing.T) {
	tl := &Timeline{Window: 50_000}
	tl.RecordOp(10, latency.KindInsert, 0, 0)
	tl.RecordOp(60_000, latency.KindRead, 1, 2)
	var sb strings.Builder
	tl.WriteTable(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want header + 2 windows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "pause") || !strings.Contains(lines[1], "50") {
		t.Errorf("unexpected table:\n%s", out)
	}
}

// TestTimelineJSONRoundTrip pins the store envelope property: a timeline
// marshals and unmarshals without loss, so a warm store hit replays the
// recorded series exactly. Walk, which the store writes and reads with,
// writes json.Marshal's bytes, an empty or reset timeline's included, and
// reads them back.
func TestTimelineJSONRoundTrip(t *testing.T) {
	tl := &Timeline{Window: 4096}
	tl.RecordOp(100, latency.KindInsert, 1, 2)
	tl.RecordOp(9000, latency.KindDelete, 0, 5)
	b1, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	reset := &Timeline{Window: 4096, Insert: []uint64{}, Delete: []uint64{}, Read: []uint64{}, Retries: []uint64{}, Pause: []uint64{}}
	for _, v := range []*Timeline{tl, {}, reset} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := jsonio.Append(nil, v.Walk); err != nil || string(got) != string(want) {
			t.Errorf("Walk writes %s (%v), json.Marshal %s", got, err, want)
		}
	}
	var back, walked Timeline
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	if err := jsonio.Read(b1, "timeline", walked.Walk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, &back) || !reflect.DeepEqual(tl, &walked) {
		t.Errorf("round trip changed the timeline:\n got %+v and %+v\nwant %+v", &back, &walked, tl)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("re-marshal is not byte-identical:\n%s\n%s", b1, b2)
	}
}
