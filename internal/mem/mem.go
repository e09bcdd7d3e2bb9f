// Package mem implements the simulated heap used by the Conditional Access
// simulator.
//
// The paper's evaluation depends on memory reclamation being real: freed
// nodes must be reusable immediately (so ABA hazards actually occur) and
// use-after-free must be observable (so safe memory reclamation schemes can
// be validated). Go's garbage collector hides both, so the simulator runs
// all data-structure state in a simulated 64-bit address space.
//
// The space is organized in 64-byte lines, matching the simulated cache line
// size. Every data-structure node occupies exactly one line (the paper makes
// the same simplifying assumption in Section IV). Each line carries an
// allocation generation, which the simulator uses to detect use-after-free
// errors and to assert the paper's safety theorems (Theorems 6 and 7) as
// executable invariants.
package mem

import "fmt"

// Addr is a simulated byte address. Word accesses must be 8-byte aligned.
type Addr = uint64

const (
	// LineBytes is the simulated cache line size.
	LineBytes = 64
	// WordBytes is the machine word size.
	WordBytes = 8
	// WordsPerLine is the number of 64-bit words per line.
	WordsPerLine = LineBytes / WordBytes
	// PoisonWord is stored in every word of a freed line. Tests use it to
	// prove that no stale value ever flows into data-structure logic.
	PoisonWord = 0xDEADBEEFDEADBEEF
)

// line states.
const (
	lineReserved uint8 = iota // never allocated (line 0)
	lineLive
	lineFree
)

type lineMeta struct {
	gen   uint32
	state uint8
}

// Space is a simulated heap. It is not safe for concurrent use; the
// simulator serializes all accesses through its scheduler.
type Space struct {
	words []uint64
	lines []lineMeta

	// freeList holds indices of freed lines, LIFO so that addresses are
	// reused immediately (maximizing ABA pressure, as a real type-preserving
	// allocator would under churn).
	freeList []uint32
	nextLine uint32
	// limit is nextLine*LineBytes, kept in sync by carve and Reset: the
	// one-compare range check on the Read/Write fast paths, which must stay
	// within the inlining budget.
	limit Addr

	// checkUAF makes Read/Write panic when touching a freed line (see
	// SetCheckUAF). The benchmark harness enables it in validation runs;
	// callers that model deliberately unsafe probing use ReadAny.
	checkUAF bool

	stats Stats
}

// Stats counts allocator activity. NodeLive is the quantity plotted in the
// paper's Figure 3: nodes allocated but not yet freed.
type Stats struct {
	NodeAllocs uint64
	NodeFrees  uint64
	InfraLines uint64 // sentinel nodes, reservation arrays, globals
	PeakLive   uint64
}

// NodeLive returns the number of node lines currently allocated and not yet
// freed.
func (s Stats) NodeLive() uint64 { return s.NodeAllocs - s.NodeFrees }

// NewSpace creates an empty simulated heap. Address 0 is reserved so that 0
// can serve as the null pointer.
func NewSpace() *Space {
	s := &Space{nextLine: 1, limit: LineBytes}
	s.grow(64)
	s.lines[0].state = lineReserved
	return s
}

// Reset returns the space to its post-NewSpace state — empty heap, empty
// free list, zeroed statistics — while keeping the backing arrays, so a
// reused machine does not pay to re-grow its heap. Every word and line
// record that was ever carved is cleared; the next trial observes state
// bit-for-bit identical to a fresh space.
func (s *Space) Reset() {
	clear(s.words[:uint64(s.nextLine)*WordsPerLine])
	clear(s.lines[:s.nextLine])
	s.lines[0].state = lineReserved
	s.freeList = s.freeList[:0]
	s.nextLine = 1
	s.setLimit()
	s.stats = Stats{}
}

func (s *Space) grow(minLines uint32) {
	for uint32(len(s.lines)) < minLines {
		n := len(s.lines) * 2
		if n == 0 {
			n = 64
		}
		nw := make([]uint64, n*WordsPerLine)
		copy(nw, s.words)
		nl := make([]lineMeta, n)
		copy(nl, s.lines)
		s.words = nw
		s.lines = nl
	}
}

// lineIndex returns the line number containing a, panicking on addresses
// outside the space. It compares in 64 bits before narrowing, so an address
// at or above 2^38 cannot alias a low line.
func (s *Space) lineIndex(a Addr) uint32 {
	if a/LineBytes >= Addr(s.nextLine) {
		panic(fmt.Sprintf("mem: wild address %#x (heap has %d lines)", a, s.nextLine))
	}
	return uint32(a / LineBytes)
}

// AllocInfra allocates a fresh line for simulator infrastructure: sentinel
// nodes, reclaimer reservation arrays, global epoch words. Infra lines are
// excluded from the Figure 3 footprint accounting and are never freed.
func (s *Space) AllocInfra() Addr {
	li := s.carve()
	s.stats.InfraLines++
	return Addr(li) * LineBytes
}

// AllocNode allocates one node line, reusing a freed line if available. The
// line's generation is advanced and its contents zeroed.
func (s *Space) AllocNode() Addr {
	var li uint32
	if n := len(s.freeList); n > 0 {
		li = s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		if s.lines[li].state != lineFree {
			panic("mem: corrupt free list")
		}
		s.lines[li].state = lineLive
		s.lines[li].gen++
		base := uint64(li) * WordsPerLine
		for i := uint64(0); i < WordsPerLine; i++ {
			s.words[base+i] = 0
		}
	} else {
		li = s.carve()
	}
	s.stats.NodeAllocs++
	if live := s.stats.NodeLive(); live > s.stats.PeakLive {
		s.stats.PeakLive = live
	}
	return Addr(li) * LineBytes
}

// carve takes a never-used line from the top of the heap.
func (s *Space) carve() uint32 {
	li := s.nextLine
	s.nextLine++
	s.setLimit()
	s.grow(s.nextLine)
	s.lines[li].state = lineLive
	s.lines[li].gen = 1
	return li
}

// FreeNode returns a node line to the allocator. The line is poisoned so any
// later unsafe read is detectable. Double frees panic: they are bugs in the
// reclamation scheme under test, not simulated program behaviour.
func (s *Space) FreeNode(a Addr) {
	if a == 0 {
		panic("mem: free of null")
	}
	if a%LineBytes != 0 {
		panic(fmt.Sprintf("mem: free of unaligned address %#x", a))
	}
	li := s.lineIndex(a)
	switch s.lines[li].state {
	case lineLive:
	case lineFree:
		panic(fmt.Sprintf("mem: double free of %#x", a))
	default:
		panic(fmt.Sprintf("mem: free of unallocated address %#x", a))
	}
	s.lines[li].state = lineFree
	base := uint64(li) * WordsPerLine
	for i := uint64(0); i < WordsPerLine; i++ {
		s.words[base+i] = PoisonWord
	}
	s.stats.NodeFrees++
	s.freeList = append(s.freeList, li)
}

// SetCheckUAF enables or disables use-after-free checking. With it on, Read
// and Write panic when touching a freed line. The flag is folded into limit
// (a checked space takes the out-of-line validation arm on every access),
// which keeps the hot-path predicate to two tests.
func (s *Space) SetCheckUAF(on bool) {
	s.checkUAF = on
	s.setLimit()
}

// setLimit recomputes the fast-path bound after nextLine or checkUAF
// changes: zero under checkUAF so every access is fully validated.
func (s *Space) setLimit() {
	if s.checkUAF {
		s.limit = 0
	} else {
		s.limit = Addr(s.nextLine) * LineBytes
	}
}

// Read loads the word at a. With use-after-free checking on, reading a freed
// line panics.
//
// Read and Write sit on every simulated memory access; their validity
// checks are shaped so the functions stay within the inlining budget, with
// everything but the in-bounds aligned fast path pushed out of line into
// checkSlow.
func (s *Space) Read(a Addr) uint64 {
	if a >= s.limit || a%WordBytes != 0 {
		s.checkSlowRead(a)
	}
	return s.words[a/WordBytes]
}

// Write stores v at a. With use-after-free checking on, writing a freed line
// panics.
func (s *Space) Write(a Addr, v uint64) {
	if a >= s.limit || a%WordBytes != 0 {
		s.checkSlowWrite(a)
	}
	s.words[a/WordBytes] = v
}

//go:noinline
func (s *Space) checkSlowRead(a Addr) { s.checkSlow(a, "read") }

//go:noinline
func (s *Space) checkSlowWrite(a Addr) { s.checkSlow(a, "write") }

// checkSlow is the out-of-line arm of the access validity check: it either
// panics with the exact diagnosis (unaligned / wild / use-after-free) or
// returns normally for a valid access under use-after-free checking, whose
// zeroed limit routes every access here.
func (s *Space) checkSlow(a Addr, op string) {
	if a%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned %s at %#x", op, a))
	}
	if a/LineBytes >= Addr(s.nextLine) {
		panic(fmt.Sprintf("mem: wild address %#x (heap has %d lines)", a, s.nextLine))
	}
	if s.checkUAF && s.lines[a/LineBytes].state != lineLive {
		panic(fmt.Sprintf("mem: use-after-free %s at %#x (gen %d)", op, a, s.lines[a/LineBytes].gen))
	}
}

// ReadAny loads a word regardless of allocation state. It models what real
// hardware would return on a use-after-free load and is used by tests and by
// diagnostics; the returned value may be PoisonWord.
func (s *Space) ReadAny(a Addr) uint64 {
	if a%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned read at %#x", a))
	}
	s.lineIndex(a)
	return s.words[a/WordBytes]
}

// Gen returns the allocation generation of the line containing a. The
// generation changes on every reallocation, letting the simulator distinguish
// "same address, same node" from "same address, recycled node".
func (s *Space) Gen(a Addr) uint32 { return s.lines[s.lineIndex(a)].gen }

// Live reports whether the line containing a is currently allocated.
func (s *Space) Live(a Addr) bool { return s.lines[s.lineIndex(a)].state == lineLive }

// Stats returns a copy of the allocator statistics.
func (s *Space) Stats() Stats { return s.stats }

// Hash returns a cheap fingerprint of all live heap contents. The
// determinism tests use it to prove that two runs with the same seed produce
// bit-identical heaps.
func (s *Space) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for li := uint32(1); li < s.nextLine; li++ {
		if s.lines[li].state != lineLive {
			continue
		}
		h = (h ^ uint64(li)) * prime
		base := uint64(li) * WordsPerLine
		for i := uint64(0); i < WordsPerLine; i++ {
			h = (h ^ s.words[base+i]) * prime
		}
	}
	return h
}
