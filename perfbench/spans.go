package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Times are nanoseconds since
// the log's origin.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps a run's spans in memory until the run ends. It is safe for
// concurrent use: trial spans arrive from the sweep pool's workers.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// now returns nanoseconds since the log's origin.
func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

// open records a span that has started and returns its id; close ends it.
func (l *spanLog) open(name, workload, cell string, parent int) int {
	s := span{Parent: parent, Name: name, Workload: workload, Cell: cell, Start: l.now(), End: -1}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans)
	l.spans = append(l.spans, s)
	return s.ID
}

func (l *spanLog) close(id int) {
	t := l.now()
	l.mu.Lock()
	l.spans[id].End = t
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durations returns the durations in nanoseconds of the named spans of one
// workload, in recording order.
func (l *spanLog) durations(workload, name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ds []float64
	for _, s := range l.spans {
		if s.Workload == workload && s.Name == name && s.End >= 0 {
			ds = append(ds, float64(s.dur()))
		}
	}
	return ds
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// summarize prints, per workload and span name, the span count, total time
// and self time: a span's duration minus the part of it that its children
// cover (children of a pooled sweep overlap, so their union is taken).
func (l *spanLog) summarize(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([][]int, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	type key struct{ workload, name string }
	sums := map[key]*agg{}
	var keys []key
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		k := key{s.Workload, s.Name}
		a := sums[k]
		if a == nil {
			a = &agg{}
			sums[k] = a
			keys = append(keys, k)
		}
		a.n++
		a.total += s.dur()
		a.self += s.dur() - l.coveredLocked(s, children[s.ID])
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].workload < keys[j].workload })
	fmt.Fprintf(w, "%-12s %-22s %8s %12s %12s\n", "workload", "span", "count", "total_ms", "self_ms")
	for _, k := range keys {
		a := sums[k]
		fmt.Fprintf(w, "%-12s %-22s %8d %12.3f %12.3f\n", k.workload, k.name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// coveredLocked returns how many nanoseconds of s the union of the given
// child spans covers.
func (l *spanLog) coveredLocked(s span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, id := range kids {
		c := l.spans[id]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, -1
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return covered
}
