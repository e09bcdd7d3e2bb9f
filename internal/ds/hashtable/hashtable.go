// Package hashtable implements the chaining hash table of the paper's
// Figure 2 (top row): a fixed array of buckets, each an independent lazy
// list (the paper uses 128 buckets). Both the Conditional Access and the
// guarded variants delegate to package lazylist per bucket, so the table
// inherits each variant's reclamation behaviour; the short chains make it a
// low-contention, shallow-traversal counterpoint to the long lists of
// Figure 1.
package hashtable

import (
	"condaccess/internal/ds/lazylist"
	"condaccess/internal/mem"
	"condaccess/internal/sim"
	"condaccess/internal/smr"
)

// DefaultBuckets matches the paper's configuration.
const DefaultBuckets = 128

// CA is a Conditional Access chaining hash table.
type CA struct {
	buckets []*lazylist.CAList
}

// NewCA builds a table with nBuckets Conditional Access bucket lists.
func NewCA(space *mem.Space, nBuckets int) *CA {
	if nBuckets <= 0 {
		panic("hashtable: nBuckets must be positive")
	}
	t := &CA{buckets: make([]*lazylist.CAList, nBuckets)}
	for i := range t.buckets {
		t.buckets[i] = lazylist.NewCA(space)
	}
	return t
}

func (t *CA) bucket(key uint64) *lazylist.CAList {
	return t.buckets[key%uint64(len(t.buckets))]
}

// Insert adds key, returning false if present.
func (t *CA) Insert(c *sim.Ctx, key uint64) bool { return t.bucket(key).Insert(c, key) }

// Delete removes key (freeing its node immediately), returning false if
// absent.
func (t *CA) Delete(c *sim.Ctx, key uint64) bool { return t.bucket(key).Delete(c, key) }

// Contains reports membership.
func (t *CA) Contains(c *sim.Ctx, key uint64) bool { return t.bucket(key).Contains(c, key) }

// Len returns the table's live size (test helper; not simulated work).
func (t *CA) Len(space *mem.Space) int {
	n := 0
	for _, b := range t.buckets {
		n += lazylist.Len(space, b.Head)
	}
	return n
}

// Guarded is a chaining hash table over guarded lazy lists sharing one
// reclamation scheme.
type Guarded struct {
	buckets []*lazylist.Guarded
	r       smr.Reclaimer
}

// NewGuarded builds a table with nBuckets bucket lists reclaimed by r.
func NewGuarded(space *mem.Space, r smr.Reclaimer, nBuckets int) *Guarded {
	if nBuckets <= 0 {
		panic("hashtable: nBuckets must be positive")
	}
	t := &Guarded{buckets: make([]*lazylist.Guarded, nBuckets), r: r}
	for i := range t.buckets {
		t.buckets[i] = lazylist.NewGuarded(space, r)
	}
	return t
}

func (t *Guarded) bucket(key uint64) *lazylist.Guarded {
	return t.buckets[key%uint64(len(t.buckets))]
}

// Insert adds key, returning false if present.
func (t *Guarded) Insert(c *sim.Ctx, key uint64) bool { return t.bucket(key).Insert(c, key) }

// Delete removes key (retiring its node), returning false if absent.
func (t *Guarded) Delete(c *sim.Ctx, key uint64) bool { return t.bucket(key).Delete(c, key) }

// Contains reports membership.
func (t *Guarded) Contains(c *sim.Ctx, key uint64) bool { return t.bucket(key).Contains(c, key) }

// Reclaimer returns the shared reclamation scheme.
func (t *Guarded) Reclaimer() smr.Reclaimer { return t.r }

// Len returns the table's live size (test helper; not simulated work).
func (t *Guarded) Len(space *mem.Space) int {
	n := 0
	for _, b := range t.buckets {
		n += lazylist.Len(space, b.Head)
	}
	return n
}
