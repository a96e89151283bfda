// Package readers abstracts SpRWL's reader-visibility structure — the
// mechanism by which an uninstrumented reader publishes "I am active" and a
// committing writer asks "is any reader active?" — behind a single
// Indicator contract with three interchangeable backends:
//
//   - Flags: the paper's per-thread state array (§3.1, Alg. 1). Arrivals
//     are one store to the caller's preassigned slot; the writer's check
//     reads one word per registered thread. Cheapest for readers, O(max
//     threads) for writers, and only usable by threads that preregistered
//     a slot.
//
//   - SNZI: the Scalable NonZero Indicator (§3.4, Fig. 6, package snzi).
//     The writer's check is a single-line read of the indicator word;
//     arrivals pay an O(log n) expected tree walk. Safe for dynamic
//     (slot-less) readers because every update is a CAS.
//
//   - Bravo: a BRAVO-style sharded visible-readers table (Dice & Kogan,
//     arXiv:1810.01553): a small power-of-two array of cache-line-padded
//     slot words sized from GOMAXPROCS, indexed by hashing a per-reader
//     hint. Arrivals are one CAS into an uncontended line; the writer's
//     check scans the table — O(table slots), independent of how many
//     goroutines exist. Probe collisions and bias revocation (see Bravo)
//     fall back to a shared overflow counter, so arbitrarily many dynamic
//     readers are always representable.
//
// The backends operate directly on simulated memory (package memmodel
// addresses) through the Memory interface, which both execution
// environments satisfy, so transactional writers that read the structure
// participate in the HTM emulation's conflict detection: a reader arriving
// after the writer's check dooms the writer through strong isolation, the
// invariant SpRWL's safety rests on (paper §3.1). Package core composes
// these backends and keeps readers visible across runtime backend
// switches; this package only defines the structures themselves.
package readers

import "sprwl/internal/memmodel"

// Memory is the uninstrumented-access subset of the execution environment
// the backends operate through. Both env implementations satisfy it.
type Memory interface {
	Load(a memmodel.Addr) uint64
	Store(a memmodel.Addr, v uint64)
	CAS(a memmodel.Addr, old, new uint64) bool
	Add(a memmodel.Addr, d uint64) uint64
}

// TxMemory is the transactional view a committing writer checks the
// structure through; env.TxAccessor satisfies it.
type TxMemory interface {
	Load(a memmodel.Addr) uint64
}

// Yielder lets a drain loop release the (possibly simulated) processor
// while it waits; env.Env satisfies it.
type Yielder interface {
	Yield()
}

// Indicator is the reader-visibility contract. An implementation must
// guarantee that between a completed Arrive and the matching Depart the
// reader is observable by every Check and holds up every Drain — with no
// gap, including across any internal fast-path/slow-path handoff.
type Indicator interface {
	// Arrive publishes an active reader. hint seeds slot selection:
	// backends that shard by identity hash it, backends with preassigned
	// slots index by it (Flags requires hint to be the caller's slot).
	// The returned token must be passed to the matching Depart.
	Arrive(hint uint64) uint64

	// Depart withdraws the publication made by the Arrive that returned
	// token.
	Depart(token uint64)

	// Check reports whether any reader is visible, reading through tx so
	// the structure's lines enter a transactional writer's read set.
	// skip, when non-negative, is a Flags slot to ignore (a writer
	// sharing the state array skips its own entry); sharded backends
	// ignore it.
	Check(tx TxMemory, skip int) bool

	// Drain blocks until no reader is visible, yielding through y while
	// it waits. Callers must prevent unbounded new arrivals (SpRWL's
	// fallback writer holds the global lock, so arriving readers flag,
	// observe the lock, and retract).
	Drain(y Yielder)
}

// Mix64 is the splitmix64 finalizer, used to spread arbitrary reader
// hints (goroutine-local seeds, slot numbers) across table slots.
//
//sprwl:hotpath
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
