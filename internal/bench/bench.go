// Package bench is the benchmark harness that regenerates the paper's
// evaluation (Section V): throughput sweeps over data structure x
// reclamation scheme x thread count x update rate (Figures 1 and 2), the
// memory-footprint trace (Figure 3), and the ablations (associativity
// sensitivity, batching/epoch-frequency tuning).
//
// Methodology mirrors the paper: each trial prefills its structure to 50%
// of the key range, then runs N operations per thread choosing insert and
// delete with equal probability (so size stays roughly constant) and
// contains for the rest. Throughput is reported in operations per million
// simulated cycles — absolute values are not comparable to the paper's
// Graphite testbed, but the scheme-vs-scheme shape is.
//
// Beyond the paper's stationary mix, the harness executes declarative
// non-stationary workloads (package scenario) through RunScenario: phased,
// role-based, time-varying trials reported with exact per-phase segments.
// The stationary Workload path is itself a lowering onto that engine (see
// run.go and scenario.go).
package bench

import (
	"fmt"

	"condaccess/internal/cache"
	"condaccess/internal/core"
	"condaccess/internal/ds/extbst"
	"condaccess/internal/ds/hashtable"
	"condaccess/internal/ds/hmlist"
	"condaccess/internal/ds/lazylist"
	"condaccess/internal/ds/queue"
	"condaccess/internal/ds/stack"
	"condaccess/internal/latency"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
	"condaccess/internal/trace"
)

// Scheme names accepted by Workload.Scheme: "ca" plus smr.Names().
func Schemes() []string { return append([]string{"ca"}, smr.Names()...) }

// Structures lists the benchmarkable data structures. "list" is the lazy
// list of the paper's Figure 1; "hmlist" is the Harris-Michael lock-free
// list (the paper's future-work extension, not in its plots).
func Structures() []string { return []string{"list", "bst", "hash", "stack", "queue", "hmlist"} }

// Workload describes one trial.
type Workload struct {
	DS     string // one of Structures()
	Scheme string // ca, none, rcu, qsbr, ibr, hp, he

	Threads      int
	KeyRange     uint64 // keys drawn from [1, KeyRange]
	UpdatePct    int    // inserts+deletes percentage: 0, 10 or 100 in the paper
	OpsPerThread int
	Buckets      int // hash only; 0 means hashtable.DefaultBuckets

	Seed  uint64
	Check bool // enable use-after-free and Theorem 6/7 assertions

	SMR   smr.Options  // reclamation tuning (paper defaults when zero)
	Cache cache.Params // cache geometry override (defaults when zero)
	Slack uint64       // scheduler quantum override (default when zero)

	// FootprintEvery samples allocated-not-freed nodes every this many
	// completed operations (0 disables) — the Figure 3 series.
	FootprintEvery int

	// OpWorkCycles models the fixed instruction cost of an operation's
	// non-memory work (harness loop, RNG, call overhead). Zero means
	// DefaultOpWork.
	OpWorkCycles uint64

	// Dist selects the key distribution: DistUniform (default, the paper's
	// choice) or DistZipf (skewed, theta 0.99).
	Dist string

	// RecordLatency records every operation's simulated latency into
	// Result.Tail, as RecordTail does, and fills Result.Latency with the
	// summary of Tail.Total.
	RecordLatency bool

	// RecordTail fills Result.Tail alone: the log-bucketed histograms in
	// O(buckets) memory. The field participates in the store content
	// address only when set (omitempty), so pre-existing store keys are
	// untouched.
	RecordTail bool `json:",omitempty"`

	// RecordTimeline fills Result.Timeline: the windowed sim-time metrics
	// series (per-window ops by kind, retries, absorbed pause cycles).
	// Like RecordTail it is omitempty, so pre-existing store keys are
	// untouched, and the recorded timeline travels through the store
	// envelope — a warm hit reproduces it byte-for-byte.
	RecordTimeline bool `json:",omitempty"`

	// TimelineWindow overrides the timeline window size in simulated cycles
	// (0 means trace.DefaultWindow; nonzero values below trace.MinWindow are
	// rejected).
	TimelineWindow uint64 `json:",omitempty"`
}

// DefaultOpWork approximates per-operation bookkeeping instructions.
const DefaultOpWork = 15

// FootprintSample is one Figure 3 data point.
type FootprintSample struct {
	AfterOps int
	Live     uint64
}

// Result aggregates one trial.
type Result struct {
	W           Workload
	PrefillSize int

	Ops        uint64  // measured operations completed
	Cycles     uint64  // simulated wall time of the measured phase
	Throughput float64 // ops per million cycles

	// Retries counts every thread's operation restarts (conditional-access
	// or validation) from the prefill on, as sim.Ctx.CountRetry counts them.
	Retries uint64

	Cache cache.Stats
	CA    core.Stats
	SMR   smr.Stats
	Mem   mem.Stats

	Footprint []FootprintSample

	// Latency is the summary of Tail.Total, filled when W.RecordLatency is
	// set.
	Latency LatencyStats

	// Tail is the streaming tail-latency record of the measured run, filled
	// when W.RecordLatency or W.RecordTail is set: the full log-bucketed
	// latency distribution plus its exact partitions by op kind
	// (insert/delete/read) and by attribution (useful work vs. absorbed SMR
	// reclamation pause vs. conditional-access/validation retry), and the
	// distribution of the reclamation pauses themselves. It costs
	// O(buckets) memory however long the trial is, and merges exactly
	// across phases and trials.
	Tail *latency.Tail `json:",omitempty"`

	// Timeline is the windowed sim-time metrics series of the measured run,
	// filled when W.RecordTimeline is set: per-window op counts by kind,
	// retry restarts, and absorbed reclamation-pause cycles, merged exactly
	// across phases like Tail. Cycle zero is the measured run's start (the
	// clocks reset after prefill).
	Timeline *trace.Timeline `json:",omitempty"`
}

// LatencyStats summarizes the per-operation simulated-latency distribution.
// Batch-based reclamation shows up here (an unlucky operation absorbs a
// whole scan+free pass), which is the paper's tail-latency critique of
// batching; Conditional Access has no such events. It is a latency.Summary
// of a window's Tail.Total: Samples, Max and MeanCycles are exact, and the
// percentiles are bucket upper bounds, at most 1/16 above the exact value.
type LatencyStats struct {
	Samples    int
	P50, P90   uint64
	P99, P999  uint64
	Max        uint64
	MeanCycles float64
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s t=%d u=%d%%: %.2f ops/Mcyc (%d ops, %d retries, live %d)",
		r.W.DS, r.W.Scheme, r.W.Threads, r.W.UpdatePct, r.Throughput, r.Ops, r.Retries, r.Mem.NodeLive())
}

// ops is the one operation interface every structure runs under: the eight
// set types satisfy it as they are, and stackOps and queueOps adapt the
// stack and the queue. The op mix (insert, delete, read) and its draws are
// the same for every structure; only what an op does differs.
type ops interface {
	Insert(c *sim.Ctx, key uint64) bool
	Delete(c *sim.Ctx, key uint64) bool
	Contains(c *sim.Ctx, key uint64) bool
}

// stackOps runs a stack as ops: insert pushes the key, which always
// succeeds, delete pops and contains peeks at the top.
type stackOps struct {
	s interface {
		Push(c *sim.Ctx, key uint64)
		Pop(c *sim.Ctx) (uint64, bool)
		Peek(c *sim.Ctx) (uint64, bool)
	}
}

func (a stackOps) Insert(c *sim.Ctx, key uint64) bool { a.s.Push(c, key); return true }
func (a stackOps) Delete(c *sim.Ctx, _ uint64) bool   { _, ok := a.s.Pop(c); return ok }
func (a stackOps) Contains(c *sim.Ctx, _ uint64) bool { _, ok := a.s.Peek(c); return ok }

// queueOps runs a queue as ops: insert enqueues the key, which always
// succeeds, delete dequeues and contains peeks at the front.
type queueOps struct {
	q interface {
		Enqueue(c *sim.Ctx, key uint64)
		Dequeue(c *sim.Ctx) (uint64, bool)
		Peek(c *sim.Ctx) (uint64, bool)
	}
}

func (a queueOps) Insert(c *sim.Ctx, key uint64) bool { a.q.Enqueue(c, key); return true }
func (a queueOps) Delete(c *sim.Ctx, _ uint64) bool   { _, ok := a.q.Dequeue(c); return ok }
func (a queueOps) Contains(c *sim.Ctx, _ uint64) bool { _, ok := a.q.Peek(c); return ok }

// built bundles a constructed structure with its reclaimer. The machine,
// not the structure, counts restarts.
type built struct {
	ops ops
	rec smr.Reclaimer // nil for ca
}

// build constructs the requested structure+scheme pair on m.
func build(m *sim.Machine, w Workload) (built, error) {
	space := m.Space
	nb := w.Buckets
	if nb == 0 {
		nb = hashtable.DefaultBuckets
	}
	if w.Scheme == "ca" {
		switch w.DS {
		case "list":
			return built{ops: lazylist.NewCA(space)}, nil
		case "bst":
			return built{ops: extbst.NewCA(space)}, nil
		case "hash":
			return built{ops: hashtable.NewCA(space, nb)}, nil
		case "stack":
			return built{ops: stackOps{stack.NewCA(space)}}, nil
		case "queue":
			return built{ops: queueOps{queue.NewCA(space)}}, nil
		case "hmlist":
			return built{ops: hmlist.NewCA(space)}, nil
		}
		return built{}, fmt.Errorf("bench: unknown structure %q", w.DS)
	}
	r, err := smr.New(w.Scheme, space, w.Threads, w.SMR)
	if err != nil {
		return built{}, err
	}
	switch w.DS {
	case "list":
		return built{ops: lazylist.NewGuarded(space, r), rec: r}, nil
	case "bst":
		return built{ops: extbst.NewGuarded(space, r), rec: r}, nil
	case "hash":
		return built{ops: hashtable.NewGuarded(space, r, nb), rec: r}, nil
	case "stack":
		return built{ops: stackOps{stack.NewGuarded(space, r)}, rec: r}, nil
	case "queue":
		return built{ops: queueOps{queue.NewGuarded(space, r)}, rec: r}, nil
	case "hmlist":
		return built{ops: hmlist.NewGuarded(space, r), rec: r}, nil
	}
	return built{}, fmt.Errorf("bench: unknown structure %q", w.DS)
}
