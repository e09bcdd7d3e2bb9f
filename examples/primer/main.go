// Primer: a guided tour of the four Conditional Access instructions —
// cread, cwrite, untagOne, untagAll — against a live cache simulation,
// following the paper's Section II semantics step by step. Run it to watch
// tagging, revocation, the untagged-cwrite rule, and ABA immunity happen.
package main

import (
	"fmt"

	"condaccess/internal/sim"
)

func main() {
	m := sim.New(sim.Config{Cores: 2, Seed: 1, Check: true})
	x := m.Space.AllocInfra()     // a shared location
	yCell := m.Space.AllocInfra() // passes y's address to thread 1
	flag := m.Space.AllocInfra()
	m.Space.Write(x, 100)

	step := func(n int, what string) { fmt.Printf("\n[%d] %s\n", n, what) }

	m.Spawn(func(c *sim.Ctx) { // thread 0: the reader
		step(1, "cread loads a value and tags its cache line")
		v, ok := c.CRead(x)
		fmt.Printf("    cread(x) = %d, ok=%v  (line now in tagSet)\n", v, ok)

		step(2, "cwrite succeeds while the tag is intact")
		ok = c.CWrite(x, v+1)
		fmt.Printf("    cwrite(x, %d) ok=%v\n", v+1, ok)

		step(3, "another core writes x: our tagged line is invalidated")
		c.Write(flag, 1)
		for c.Read(flag) != 2 {
			c.Work(10)
		}

		step(4, "the accessRevokedBit is set: conditional accesses now fail")
		_, ok = c.CRead(x)
		fmt.Printf("    cread(x) ok=%v  (failed: possible use-after-free)\n", ok)
		ok = c.CWrite(x, 0)
		fmt.Printf("    cwrite(x) ok=%v  (failed for the same reason)\n", ok)

		step(5, "untagAll clears the tagSet and the revoked bit: retry works")
		c.UntagAll()
		v, ok = c.CRead(x)
		fmt.Printf("    cread(x) = %d, ok=%v\n", v, ok)

		step(6, "cwrite on a never-tagged line fails by design")
		y := c.AllocNode()
		ok = c.CWrite(y, 5)
		fmt.Printf("    cwrite(untagged y) ok=%v  (paper: tag-first avoids TOCTOU fills)\n", ok)

		step(7, "untagOne stops tracking one line but keeps the rest")
		c.UntagAll()
		c.CRead(x)
		c.CRead(y)
		c.UntagOne(y)
		c.Write(yCell, y)
		c.Write(flag, 3) // ask thread 1 to write y
		for c.Read(flag) != 4 {
			c.Work(10)
		}
		_, ok = c.CRead(x)
		fmt.Printf("    after remote write to untagged y: cread(x) ok=%v (unaffected)\n", ok)

		step(8, "why CAS is ABA-vulnerable and cwrite is not")
		fmt.Println("    a CAS compares values: top==A succeeds even if A was freed,")
		fmt.Println("    recycled, and re-pushed. cwrite instead asks the coherence")
		fmt.Println("    protocol 'was my tagged line ever invalidated?' — recycling a")
		fmt.Println("    node requires writing it, so the answer is always yes.")
		c.Write(flag, 5)
	})

	m.Spawn(func(c *sim.Ctx) { // thread 1: the interfering writer
		for c.Read(flag) != 1 {
			c.Work(10)
		}
		c.Write(x, 999) // invalidates thread 0's tagged copy
		c.Write(flag, 2)
		for c.Read(flag) != 3 {
			c.Work(10)
		}
		// Write the line thread 0 untagged: must NOT revoke thread 0.
		c.Write(c.Read(yCell), 7)
		c.Write(flag, 4)
		for c.Read(flag) != 5 {
			c.Work(10)
		}
	})
	m.Run()

	st := m.CAStats()
	fmt.Printf("\nsummary: %d creads (%d failed), %d cwrites (%d failed), %d revocations\n",
		st.CReads, st.CReadFails, st.CWrites, st.CWriteFails, st.Revocations)
}
