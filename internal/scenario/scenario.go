// Package scenario declares phased, role-based, time-varying workloads for
// the benchmark harness. The paper's evaluation runs one stationary mix —
// identical threads, one insert/delete/contains split, one key distribution,
// from prefill to exit — but batch-based reclamation's pathologies (the
// paper's own tail-latency critique of epoch/IBR batching) show up under
// non-stationary load: bursts, phase changes, shifting hotspots, drains.
//
// A Scenario is purely declarative: an ordered list of Phases, each with a
// duration (operations per thread or simulated cycles), an explicit
// per-operation weight table (replacing the rigid UpdatePct/2 split), a key
// distribution + range window, and an optional intensity Profile that
// modulates per-op think time over the phase (constant, ramp, burst, or
// piecewise-rate "inhomogeneous" schedules in the spirit of inhomogeneous
// Poisson workload generators). Roles partition the thread population —
// e.g. 6 readers / 2 writers / 1 churner — so threads are no longer
// interchangeable.
//
// The type is JSON-serializable (cmd/cascenario loads scenario files), and
// package bench compiles it into per-thread op streams executed on the
// deterministic simulator; given the same scenario, binding, and seed, a run
// is bit-for-bit reproducible like every other trial.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
)

// Weights is a per-operation weight table. An operation is drawn with
// probability weight/total. For sets the slots are insert/delete/contains;
// for stacks push/pop/peek; for queues enqueue/dequeue/front-peek.
type Weights struct {
	Insert int `json:"insert"`
	Delete int `json:"delete"`
	Read   int `json:"read"`
}

// Total returns the weight sum.
func (w Weights) Total() int { return w.Insert + w.Delete + w.Read }

func (w Weights) validate(where string) error {
	if w.Insert < 0 || w.Delete < 0 || w.Read < 0 {
		return fmt.Errorf("scenario: %s: negative weight %+v", where, w)
	}
	if w.Total() == 0 {
		return fmt.Errorf("scenario: %s: weight table sums to zero", where)
	}
	return nil
}

// Profile kinds. The profile shapes per-op think time (local work cycles
// charged before each operation) across a phase, so operation *intensity*
// varies over simulated time: less think time means a higher arrival rate.
const (
	ProfileConstant  = "constant"
	ProfileRamp      = "ramp"
	ProfileBurst     = "burst"
	ProfilePiecewise = "piecewise"
)

// Step is one segment of a piecewise intensity profile: Ops operations at
// Work think-time cycles each. The last step extends to the end of the
// phase.
type Step struct {
	Ops  int    `json:"ops"`
	Work uint64 `json:"work"`
}

// Profile is a time-varying think-time schedule. The zero value is a
// constant profile at the harness default work.
type Profile struct {
	// Kind is one of the Profile* constants; empty means ProfileConstant.
	Kind string `json:"kind,omitempty"`
	// Work is the base think time in cycles; 0 means the harness default.
	Work uint64 `json:"work,omitempty"`
	// From and To are the ramp endpoints (ProfileRamp); 0 means the harness
	// default. Think time is interpolated linearly over the phase, so a
	// From > To ramp models intensity ramping *up*.
	From uint64 `json:"from,omitempty"`
	To   uint64 `json:"to,omitempty"`
	// Period and Len shape ProfileBurst: each period of Period ops starts
	// with Len ops at BurstWork think time, the rest run at Work.
	Period    int    `json:"period,omitempty"`
	Len       int    `json:"len,omitempty"`
	BurstWork uint64 `json:"burstWork,omitempty"`
	// Steps is the ProfilePiecewise schedule.
	Steps []Step `json:"steps,omitempty"`
}

func (p Profile) validate(where string) error {
	switch p.Kind {
	case "", ProfileConstant, ProfileRamp:
		return nil
	case ProfileBurst:
		if p.Period <= 0 {
			return fmt.Errorf("scenario: %s: burst profile needs period > 0", where)
		}
		if p.Len < 0 || p.Len > p.Period {
			return fmt.Errorf("scenario: %s: burst len %d out of [0,%d]", where, p.Len, p.Period)
		}
		return nil
	case ProfilePiecewise:
		if len(p.Steps) == 0 {
			return fmt.Errorf("scenario: %s: piecewise profile needs steps", where)
		}
		for i, s := range p.Steps {
			if s.Ops <= 0 && i != len(p.Steps)-1 {
				return fmt.Errorf("scenario: %s: piecewise step %d needs ops > 0", where, i)
			}
		}
		return nil
	default:
		return fmt.Errorf("scenario: %s: unknown profile kind %q", where, p.Kind)
	}
}

// Phase is one stage of a scenario. Exactly one of Ops and Cycles must be
// positive: Ops runs every thread for that many operations; Cycles runs
// every thread until its core clock has advanced that many simulated cycles
// past its phase entry. Phases are separated by a global barrier (no thread
// enters phase k+1 before all threads finish phase k), which is what makes
// per-phase accounting exact.
type Phase struct {
	Name string `json:"name"`
	// Ops is the phase duration in operations per thread.
	Ops int `json:"ops,omitempty"`
	// Cycles is the phase duration in simulated cycles per thread.
	Cycles uint64 `json:"cycles,omitempty"`
	// Weights is the phase's default op mix; roles may override it.
	Weights Weights `json:"weights"`
	// Dist names the key distribution ("uniform", "zipf"); empty inherits
	// the binding's default.
	Dist string `json:"dist,omitempty"`
	// KeyRange restricts this phase to [1, KeyRange]; 0 inherits the
	// binding's range.
	KeyRange uint64 `json:"keyRange,omitempty"`
	// KeyShift rotates drawn keys by this fraction of the key range
	// (mod range), so a skewed distribution's hot set moves between phases —
	// the shifting-hotspot scenario. Must be in [0,1).
	KeyShift float64 `json:"keyShift,omitempty"`
	// Profile modulates per-op think time across the phase.
	Profile Profile `json:"profile,omitempty"`
}

// Role assigns a behavior to a block of threads. Threads take roles in
// declaration order: the first Count threads get the first role, and so on.
// At most one role may have Count 0, meaning "all remaining threads".
type Role struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Weights overrides every phase's weight table for this role's threads;
	// nil keeps the phase mix.
	Weights *Weights `json:"weights,omitempty"`
}

// Scenario is an ordered list of phases executed by a population of
// role-tagged threads.
type Scenario struct {
	Name   string  `json:"name"`
	Phases []Phase `json:"phases"`
	// Roles partitions the thread population; empty means all threads run
	// the phase mixes (one uniform role).
	Roles []Role `json:"roles,omitempty"`
}

// Validate checks the scenario's internal consistency. Binding-dependent
// checks (role counts vs thread count, key ranges vs the bound range,
// distribution names) happen when the harness compiles the scenario.
func (s *Scenario) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", s.Name)
	}
	for i, ph := range s.Phases {
		where := fmt.Sprintf("phase %d (%s)", i, ph.Name)
		if (ph.Ops > 0) == (ph.Cycles > 0) {
			return fmt.Errorf("scenario: %s: exactly one of ops and cycles must be positive", where)
		}
		if ph.Ops < 0 {
			return fmt.Errorf("scenario: %s: negative ops", where)
		}
		if !(ph.KeyShift >= 0 && ph.KeyShift < 1) { // NaN fails both comparisons
			return fmt.Errorf("scenario: %s: key shift %v out of [0,1)", where, ph.KeyShift)
		}
		if err := ph.Weights.validate(where); err != nil {
			return err
		}
		if err := ph.Profile.validate(where); err != nil {
			return err
		}
	}
	rest := 0
	for i, r := range s.Roles {
		where := fmt.Sprintf("role %d (%s)", i, r.Name)
		if r.Count < 0 {
			return fmt.Errorf("scenario: %s: negative count", where)
		}
		if r.Count == 0 {
			if rest++; rest > 1 {
				return fmt.Errorf("scenario: %s: more than one catch-all (count 0) role", where)
			}
		}
		if r.Weights != nil {
			if err := r.Weights.validate(where); err != nil {
				return err
			}
		}
	}
	return nil
}

// MinThreads returns the smallest thread count the role table can be
// spread over: the sum of fixed role counts, plus one per catch-all role.
// A scenario with no roles runs on any thread count (returns 1).
func (s *Scenario) MinThreads() int {
	n := 0
	for _, r := range s.Roles {
		if r.Count == 0 {
			n++
		} else {
			n += r.Count
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// TotalOpsHint returns the per-thread operation count when every phase is
// ops-bounded, and ok=false when any phase is cycle-bounded (so the count
// depends on the run).
func (s *Scenario) TotalOpsHint() (n int, ok bool) {
	ok = true
	for _, ph := range s.Phases {
		if ph.Ops <= 0 {
			ok = false
			continue
		}
		n += ph.Ops
	}
	return n, ok
}

// Parse decodes and validates a scenario from JSON bytes. It is the parse
// half of Load, exposed so callers (and the fuzz harness) can feed scenarios
// from any source: Parse(b) succeeding guarantees the scenario is valid and
// that re-marshaling it yields bytes Parse accepts again with an identical
// result (pinned by FuzzLoadScenario).
func Parse(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parsing: %w", err)
	}
	// Canonicalize empty-but-present lists ("roles":[]) to absent: the two
	// spellings mean the same scenario, and omitempty would otherwise turn
	// one into the other across a marshal round trip (found by
	// FuzzLoadScenario).
	if len(s.Roles) == 0 {
		s.Roles = nil
	}
	for i := range s.Phases {
		if len(s.Phases[i].Profile.Steps) == 0 {
			s.Phases[i].Profile.Steps = nil
		}
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Load reads a scenario from a JSON file and validates it. An unnamed
// scenario takes the file path as its name.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		// Parse errors already carry the "scenario:" prefix; add the path.
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	return s, nil
}
