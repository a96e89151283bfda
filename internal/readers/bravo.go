package readers

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sprwl/internal/memmodel"
)

// Bravo is a BRAVO-style sharded visible-readers table (Dice & Kogan,
// arXiv:1810.01553) adapted to SpRWL's flag-then-check protocol: a
// power-of-two array of cache-line-padded slot words, a shared overflow
// counter line, and a control line carrying a reader-bias bit plus a
// revocation epoch.
//
// Layout (each row its own cache line, so concurrent arrivals on distinct
// slots never share a line):
//
//	line 0            ctl: epoch<<1 | bias
//	line 1            overflow reader count
//	lines 2..2+slots  one visibility word per table slot (0 = empty)
//
// Arrive hashes the caller's hint over the table and claims an empty slot
// with a single CAS. If every probe collides — or a fallback writer has
// revoked the bias — the reader publishes on the overflow counter instead,
// so the structure never loses a reader regardless of how many goroutines
// pile in. The committing writer's Check reads the overflow line plus the
// table: O(slots)+1 lines, independent of the process's goroutine count.
//
// The bias bit is purely advisory, which is what makes revocation safe: a
// reader that read a stale bias and claims a slot after the writer cleared
// the bit is still published in a line every Check and Drain scans
// unconditionally. Revocation only steers *new* arrivals onto the single
// overflow line while a fallback writer drains, so the per-slot drain
// converges instead of chasing freshly claimed slots, and the epoch counts
// how often that happened for observability.
type Bravo struct {
	mem   Memory
	ctl   memmodel.Addr
	over  memmodel.Addr
	table memmodel.Addr
	n     int
	mask  uint64

	// Go-side accounting for reports and tests; not part of the
	// protocol state.
	collisions  atomic.Uint64
	revocations atomic.Uint64
}

var _ Indicator = (*Bravo)(nil)

// OverflowToken is the Arrive token of a reader published on the overflow
// counter rather than in a table slot.
const OverflowToken uint64 = 0

// bravoProbes is how many table slots an arrival tries before falling back
// to the overflow counter. Linear probing is fine: adjacent slots are
// distinct cache lines, and the hint is pre-mixed.
const bravoProbes = 3

// DefaultBravoSlots derives a table size from GOMAXPROCS: twice the
// processor count, rounded up to a power of two, bounded to keep the
// writer's scan short. More slots than runnable goroutines buys nothing —
// only ~GOMAXPROCS readers are ever mid-arrival at once.
func DefaultBravoSlots() int {
	return ClampBravoSlots(2 * runtime.GOMAXPROCS(0))
}

// ClampBravoSlots rounds n up to a power of two within [4, 256].
func ClampBravoSlots(n int) int {
	p := 4
	for p < n && p < 256 {
		p *= 2
	}
	return p
}

// BravoWords returns the simulated-memory footprint of a table with the
// given slot count, in words.
func BravoWords(slots int) int { return (2 + slots) * memmodel.LineWords }

// NewBravo builds a table of the given power-of-two slot count occupying
// BravoWords(slots) words at base. The region must be zeroed; the
// constructor arms the reader bias.
func NewBravo(mem Memory, base memmodel.Addr, slots int) *Bravo {
	if base%memmodel.LineWords != 0 {
		panic(fmt.Sprintf("readers: Bravo base %d not line-aligned", base))
	}
	if slots < 1 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("readers: Bravo slot count %d not a power of two", slots))
	}
	b := &Bravo{
		mem:   mem,
		ctl:   base,
		over:  base + memmodel.LineWords,
		table: base + 2*memmodel.LineWords,
		n:     slots,
		mask:  uint64(slots - 1),
	}
	mem.Store(b.ctl, 1) // epoch 0, bias on
	return b
}

// Slots returns the table size.
func (b *Bravo) Slots() int { return b.n }

func (b *Bravo) slotAddr(i int) memmodel.Addr {
	return b.table + memmodel.Addr(i*memmodel.LineWords)
}

// Arrive implements Indicator: claim a hashed table slot, or publish on
// the overflow counter when the probes collide or the bias is revoked.
//
//sprwl:hotpath
//sprwl:model
func (b *Bravo) Arrive(hint uint64) uint64 {
	if b.mem.Load(b.ctl)&1 != 0 {
		h := Mix64(hint)
		for p := uint64(0); p < bravoProbes; p++ {
			i := int((h + p) & b.mask)
			a := b.slotAddr(i)
			if b.mem.Load(a) == 0 && b.mem.CAS(a, 0, 1) {
				return uint64(i) + 1
			}
		}
		b.collisions.Add(1)
	}
	b.mem.Add(b.over, 1)
	return OverflowToken
}

// Depart implements Indicator.
//
//sprwl:hotpath
//sprwl:model
func (b *Bravo) Depart(token uint64) {
	if token == OverflowToken {
		b.mem.Add(b.over, ^uint64(0))
		return
	}
	b.mem.Store(b.slotAddr(int(token-1)), 0)
}

// Check implements Indicator: the overflow line plus every table slot —
// O(slots) lines regardless of goroutine count. skip is ignored; writers
// never occupy table slots.
//
//sprwl:hotpath
func (b *Bravo) Check(tx TxMemory, _ int) bool {
	if tx.Load(b.over) != 0 {
		return true
	}
	for i := 0; i < b.n; i++ {
		if tx.Load(b.slotAddr(i)) != 0 {
			return true
		}
	}
	return false
}

// Drain implements Indicator: wait out each table slot, then the overflow
// counter. Callers revoke the bias first (Revoke) so new arrivals land on
// the overflow line and the per-slot waits converge.
//
//sprwl:model
func (b *Bravo) Drain(y Yielder) {
	for i := 0; i < b.n; i++ {
		for b.mem.Load(b.slotAddr(i)) != 0 {
			y.Yield()
		}
	}
	for b.mem.Load(b.over) != 0 {
		y.Yield()
	}
}

// Revoke clears the reader bias and advances the revocation epoch,
// steering new arrivals onto the overflow counter. Only the fallback-lock
// holder may call it (stores to ctl are unsynchronized); pair with Restore
// before releasing the lock.
//
//sprwl:model
func (b *Bravo) Revoke() {
	epoch := b.mem.Load(b.ctl) >> 1
	b.mem.Store(b.ctl, (epoch+1)<<1)
	b.revocations.Add(1)
}

// Restore re-arms the reader bias after a revocation.
//
//sprwl:model
func (b *Bravo) Restore() {
	b.mem.Store(b.ctl, b.mem.Load(b.ctl)|1)
}

// Epoch returns the revocation epoch: how many times a fallback writer has
// revoked the bias.
func (b *Bravo) Epoch() uint64 { return b.mem.Load(b.ctl) >> 1 }

// Biased reports whether the reader bias is armed.
func (b *Bravo) Biased() bool { return b.mem.Load(b.ctl)&1 != 0 }

// Collisions returns how many arrivals exhausted their probes and fell
// back to the overflow counter while the bias was armed.
func (b *Bravo) Collisions() uint64 { return b.collisions.Load() }

// Revocations returns how many times Revoke ran.
func (b *Bravo) Revocations() uint64 { return b.revocations.Load() }
