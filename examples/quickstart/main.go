// Quickstart: build a simulated multicore, run a Conditional Access stack
// and lazy list from several threads, and confirm immediate reclamation —
// the library's 60-second tour.
package main

import (
	"fmt"

	"condaccess/internal/ds/lazylist"
	"condaccess/internal/ds/stack"
	"condaccess/internal/sim"
)

func main() {
	// A machine with 4 simulated cores. Check mode turns the paper's safety
	// theorems into runtime assertions: any use-after-free or ABA violation
	// panics.
	m := sim.New(sim.Config{Cores: 4, Seed: 42, Check: true})

	// Data structures live in the simulated heap, not the Go heap.
	st := stack.NewCA(m.Space)
	set := lazylist.NewCA(m.Space)

	// Spawn one simulated thread per core. Threads only touch shared state
	// through their Ctx, which charges simulated cycles for every access.
	for i := 0; i < 4; i++ {
		m.Spawn(func(c *sim.Ctx) {
			id := uint64(c.ThreadID())
			for j := uint64(0); j < 1000; j++ {
				key := id*1000 + j + 1
				st.Push(c, key)
				set.Insert(c, key)
				if j%2 == 0 {
					st.Pop(c)          // pop frees the node immediately
					set.Delete(c, key) // so does delete
				}
			}
		})
	}
	m.Run()

	heap := m.Space.Stats()
	fmt.Println(m)
	fmt.Printf("simulated time: %d cycles across 4 cores\n", m.MaxClock())
	fmt.Printf("nodes allocated: %d, freed: %d, live: %d\n",
		heap.NodeAllocs, heap.NodeFrees, heap.NodeLive())
	fmt.Printf("set size: %d, stack depth: %d\n",
		lazylist.Len(m.Space, set.Head), heap.NodeLive()-uint64(lazylist.Len(m.Space, set.Head)))

	ca := m.CAStats()
	fmt.Printf("creads: %d (%d failed), cwrites: %d (%d failed), revocations: %d\n",
		ca.CReads, ca.CReadFails, ca.CWrites, ca.CWriteFails, ca.Revocations)
	fmt.Println("every deleted node was freed the instant it was unlinked —")
	fmt.Println("no epochs, no hazard pointers, no batches, and the Check-mode")
	fmt.Println("assertions prove no thread ever touched freed memory.")
}
