package sim

// RNG is a small, fast, self-contained xorshift64* generator. The simulator
// avoids math/rand so that results are bit-reproducible regardless of Go
// version, and because workload generation sits on the simulation hot path.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; a zero seed is remapped to a fixed constant
// (xorshift has a zero fixed point).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	s := r.s
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	r.s = s
	return s * 0x2545F4914F6CDD1D
}

// ThreadRNG returns stream i of seed, started i golden-ratio steps from it.
// A harness builds each simulated thread's stream once with it and carries
// it across Run phases, so a later phase continues the stream rather than
// replaying it.
func ThreadRNG(seed uint64, i int) *RNG {
	return NewRNG(seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
}

// Uint64n returns a value uniform in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	return r.Uint64() % n
}

// Intn returns a value uniform in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int { return int(r.Uint64n(uint64(n))) }
