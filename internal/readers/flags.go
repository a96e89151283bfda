package readers

import "sprwl/internal/memmodel"

// Flag-array word values. They intentionally coincide with package core's
// state constants: the Flags backend operates on core's per-thread state
// array, where writers advertise themselves with a different value
// (stateWriter = 2) in the same words; only flagActive counts as a reader.
const (
	flagEmpty  = 0
	flagActive = 1
)

// Flags is the paper's per-thread flag array (§3.1): one word per
// preregistered thread, packed eight to a cache line. It is the only
// backend that is not dynamic-safe — an Arrive hint must be the caller's
// own preassigned slot, and a concurrent Arrive with the same hint would be
// a lost update.
type Flags struct {
	mem  Memory
	base memmodel.Addr
	n    int
}

var _ Indicator = Flags{}

// NewFlags wraps the n-word array at base (typically core's state array;
// this backend allocates nothing of its own).
func NewFlags(mem Memory, base memmodel.Addr, n int) Flags {
	return Flags{mem: mem, base: base, n: n}
}

func (f Flags) addr(i int) memmodel.Addr { return f.base + memmodel.Addr(i) }

// Arrive implements Indicator. hint must be the caller's slot in [0, n).
//
//sprwl:hotpath
//sprwl:model
func (f Flags) Arrive(hint uint64) uint64 {
	f.mem.Store(f.addr(int(hint)), flagActive)
	return hint
}

// Depart implements Indicator.
//
//sprwl:hotpath
//sprwl:model
func (f Flags) Depart(token uint64) {
	f.mem.Store(f.addr(int(token)), flagEmpty)
}

// Check implements Indicator: one transactional load per registered
// thread, skipping the writer's own slot when skip is non-negative.
//
//sprwl:hotpath
func (f Flags) Check(tx TxMemory, skip int) bool {
	for i := 0; i < f.n; i++ {
		if i != skip && tx.Load(f.addr(i)) == flagActive {
			return true
		}
	}
	return false
}

// Drain implements Indicator: wait, at most once per slot, for every
// active reader to retract.
//
//sprwl:model
func (f Flags) Drain(y Yielder) {
	for i := 0; i < f.n; i++ {
		for f.mem.Load(f.addr(i)) == flagActive {
			y.Yield()
		}
	}
}
