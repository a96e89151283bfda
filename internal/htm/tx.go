package htm

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// Transaction lifecycle states, packed into the low bits of Tx.state; a doom
// cause is packed alongside so that state and cause change atomically.
const (
	stInactive uint32 = iota
	stActive
	stCommitting
	stDoomed
)

const (
	stateBits  = 8
	stateMask  = (1 << stateBits) - 1
	causeShift = stateBits
)

func packState(st uint32, cause env.AbortCause) uint32 {
	return st | uint32(cause)<<causeShift
}

// Tx is a single thread slot's (reusable) transaction descriptor. A Tx is
// only ever manipulated by its owning thread, except for the state word,
// which conflicting threads CAS to doom it.
type Tx struct {
	space *Space
	slot  int
	mask  uint64

	// state holds the packed lifecycle state and doom cause.
	state atomic.Uint32

	rot       bool
	suspended bool

	// log buffers this attempt's stores in program order; readSet and
	// writeSet track the lines touched. All three are flat epoch-stamped
	// structures (see sets.go) reset in O(1) by begin.
	log      writeLog
	readSet  lineSet
	writeSet lineSet
}

var _ env.TxAccessor = (*Tx)(nil)

// abortPanic unwinds a transactional attempt body; it never escapes Attempt.
type abortPanic struct{ cause env.AbortCause }

// ownerReleaseSpins bounds how long a line acquirer polls for a doomed
// owner's release before giving up and aborting itself; see acquireLine.
const ownerReleaseSpins = 128

// doom tries to move the transaction from Active to Doomed with the given
// cause. It reports whether the transaction is now (or was already) doomed
// or inactive; false means the transaction won the race to its commit point
// (or is mid-cleanup) and must be treated as serialized before the caller.
func (t *Tx) doom(cause env.AbortCause) bool {
	for {
		st := t.state.Load()
		switch st & stateMask {
		case stActive:
			if t.state.CompareAndSwap(st, packState(stDoomed, cause)) {
				return true
			}
		case stDoomed, stInactive:
			return true
		case stCommitting:
			return false
		}
	}
}

// doomed reports whether the transaction has been doomed.
func (t *Tx) doomed() bool { return t.state.Load()&stateMask == stDoomed }

func (t *Tx) doomCause() env.AbortCause {
	return env.AbortCause(t.state.Load() >> causeShift)
}

// begin arms the descriptor for a fresh attempt.
func (t *Tx) begin(opts env.TxOpts) {
	if t.state.Load()&stateMask != stInactive {
		panic(fmt.Sprintf("htm: nested transaction on slot %d", t.slot))
	}
	t.rot = opts.ROT
	t.suspended = false
	t.log.reset()
	t.readSet.reset()
	t.writeSet.reset()
	t.state.Store(packState(stActive, env.Committed))
}

// fail dooms the transaction itself (preserving an earlier doom cause if one
// raced in) and unwinds the attempt body.
func (t *Tx) fail(cause env.AbortCause) {
	t.doom(cause)
	panic(abortPanic{cause: t.doomCause()})
}

// checkAlive unwinds the attempt if the transaction has been doomed by a
// conflicting access, and applies spurious-abort injection.
func (t *Tx) checkAlive() {
	if t.doomed() {
		panic(abortPanic{cause: t.doomCause()})
	}
	if every := t.space.cfg.SpuriousEvery; every != 0 {
		if t.space.spurCtr.Add(1)%every == 0 {
			t.fail(env.AbortSpurious)
		}
	}
}

// Load implements env.TxAccessor. Non-ROT loads record the line in the read
// set (publishing the read bit before reading the word, so a conflicting
// uninstrumented store can never be missed) and doom a conflicting
// transactional writer, requester-wins. ROT loads are untracked, exactly
// like POWER8 rollback-only transactions: they carry no capacity cost and a
// later store to the line does not abort the ROT.
//
//sprwl:hotpath
func (t *Tx) Load(a memmodel.Addr) uint64 {
	if t.suspended {
		return t.suspendedLoad(a)
	}
	t.checkAlive()
	s := t.space
	l := memmodel.LineOf(a)
	if !t.log.empty() {
		// Read-your-writes: the direct-mapped cache resolves the common
		// case in one probe; a collision-evicted entry falls back to a
		// newest-first log scan, gated on line ownership so unwritten
		// addresses never pay for it.
		if v, ok := t.log.cached(a); ok {
			return v
		}
		if t.writeSet.contains(l) {
			if v, ok := t.log.latest(a); ok {
				return v
			}
			// The line is ours but this word was never stored:
			// memory still holds its pre-transactional value, and
			// owning the line means no tracking is needed.
			return t.memLoad(a)
		}
	}
	if t.rot {
		// Untracked load: behave like an uninstrumented load
		// (a remote read still aborts a conflicting writer in
		// hardware), but without touching our read set.
		return t.rotLoad(a, l)
	}
	if !t.readSet.contains(l) {
		if cap := s.caps[t.slot].read; cap > 0 && t.readSet.len() >= cap {
			t.fail(env.AbortCapacity)
		}
		lm := s.line(l)
		lm.readers.Or(t.mask)
		t.readSet.add(l)
		t.resolveWriter(lm)
	}
	return t.memLoad(a)
}

// memLoad reads a from memory and re-checks the doom flag afterwards.
// Hardware aborts a transaction at the conflicting access, so a doomed
// transaction never retires a load; here a conflicting writer can doom us
// and then store between Load's entry check and the read, and returning
// that value would let the body act on a state no serialization explains
// (a torn read of a multi-word update).
//
//sprwl:hotpath
func (t *Tx) memLoad(a memmodel.Addr) uint64 {
	v := atomic.LoadUint64(t.space.word(a))
	if t.doomed() {
		panic(abortPanic{cause: t.doomCause()})
	}
	return v
}

// rotLoad performs an untracked transactional load.
func (t *Tx) rotLoad(a memmodel.Addr, l memmodel.Line) uint64 {
	s := t.space
	lm := s.line(l)
	for {
		v := atomic.LoadUint64(s.word(a))
		w := lm.writer.Load()
		if w == 0 || int(w-1) == t.slot {
			return v
		}
		if s.txs[w-1].doom(env.AbortConflict) {
			return v
		}
		for lm.writer.Load() == w {
			runtime.Gosched()
			t.checkAlive()
		}
	}
}

// resolveWriter dooms a conflicting transactional writer of a line we just
// added to our read set, waiting out a committing one. If waiting, the
// committed value will be observed by our subsequent load, which is exactly
// the serialization hardware provides.
func (t *Tx) resolveWriter(lm *lineMeta) {
	for {
		w := lm.writer.Load()
		if w == 0 || int(w-1) == t.slot {
			return
		}
		other := &t.space.txs[w-1]
		if other.doom(env.AbortConflict) {
			return
		}
		for lm.writer.Load() == w {
			runtime.Gosched()
			t.checkAlive()
		}
	}
}

// Store implements env.TxAccessor. The write is buffered; the line's writer
// ownership is published before conflicting readers are doomed, closing the
// race with concurrent read-set insertions.
//
//sprwl:hotpath
func (t *Tx) Store(a memmodel.Addr, v uint64) {
	if t.suspended {
		t.space.Store(a, v)
		return
	}
	t.checkAlive()
	s := t.space
	l := memmodel.LineOf(a)
	if !t.writeSet.contains(l) {
		if cap := s.caps[t.slot].write; cap > 0 && t.writeSet.len() >= cap {
			t.fail(env.AbortCapacity)
		}
		t.acquireLine(l)
		t.writeSet.add(l)
	}
	t.log.store(a, v)
}

// acquireLine takes exclusive transactional ownership of line l, dooming
// conflicting transactions requester-wins and waiting out committing ones.
func (t *Tx) acquireLine(l memmodel.Line) {
	s := t.space
	lm := s.line(l)
	for {
		w := lm.writer.Load()
		switch {
		case w == 0:
			if lm.writer.CompareAndSwap(0, uint64(t.slot+1)) {
				// Ownership published; now doom every reader
				// (other than ourselves) that got its bit in
				// before us.
				s.doomSlots(lm.readers.Load()&^t.mask, env.AbortConflict)
				return
			}
		case int(w-1) == t.slot:
			return
		default:
			other := &s.txs[w-1]
			if !other.doom(env.AbortConflict) {
				// The owner is committing: write-back is
				// straight-line code, so this wait is short.
				for lm.writer.Load() == w {
					runtime.Gosched()
					t.checkAlive()
				}
				continue
			}
			// The owner is doomed but has not yet unwound and
			// released the line. On the real runtime it does so
			// within a few of its own instructions, so poll
			// briefly (requester wins). The poll must stay bounded:
			// under the simulator's serialized scheduling the owner
			// cannot run while we hold the token, and an unbounded
			// wait would deadlock — past the bound the conflict
			// costs us the transaction instead, which is an equally
			// faithful HTM outcome for a write-write conflict.
			for i := 0; i < ownerReleaseSpins; i++ {
				if lm.writer.Load() != w {
					break
				}
				runtime.Gosched()
				t.checkAlive()
			}
			if lm.writer.Load() == w {
				t.fail(env.AbortConflict)
			}
		}
	}
}

// suspendedLoad is an uninstrumented load issued from a suspended section.
// Unlike Space.Load it must not doom the suspended transaction itself when
// reading a line that transaction has written: per POWER8 semantics it
// returns the pre-transactional (memory) value instead.
func (t *Tx) suspendedLoad(a memmodel.Addr) uint64 {
	s := t.space
	lm := s.line(memmodel.LineOf(a))
	for {
		v := atomic.LoadUint64(s.word(a))
		w := lm.writer.Load()
		if w == 0 || int(w-1) == t.slot {
			return v
		}
		if s.txs[w-1].doom(env.AbortConflict) {
			return v
		}
		for lm.writer.Load() == w {
			runtime.Gosched()
		}
	}
}

// Abort implements env.TxAccessor.
func (t *Tx) Abort(cause env.AbortCause) {
	t.fail(cause)
}

// Aborted implements env.TxAccessor: a non-unwinding doom check, usable from
// suspended sections.
func (t *Tx) Aborted() bool { return t.doomed() }

// Suspend implements env.TxAccessor, modelling POWER8 suspend/resume: fn
// runs with this transaction's accesses behaving as uninstrumented ones,
// while the transaction remains doomable by conflicting accesses. It reports
// whether the transaction is still alive at resume.
func (t *Tx) Suspend(fn func()) bool {
	if t.suspended {
		panic("htm: nested Suspend")
	}
	t.suspended = true
	fn()
	t.suspended = false
	return !t.doomed()
}

// commit attempts to make the transaction's writes visible atomically.
// Moving to Committing first means every later conflict race is won by this
// transaction; write-back happens while the lines are still owned, and
// ownership is only released afterwards, so no thread can observe a torn
// commit. Write-back replays the log in program order (last store to an
// address wins), so externalization is deterministic.
func (t *Tx) commit() env.AbortCause {
	if !t.state.CompareAndSwap(packState(stActive, env.Committed), packState(stCommitting, env.Committed)) {
		cause := t.doomCause()
		t.cleanup()
		return cause
	}
	s := t.space
	for i, a := range t.log.addrs {
		atomic.StoreUint64(s.word(a), t.log.vals[i])
	}
	t.cleanup()
	return env.Committed
}

// cleanup releases all line metadata and retires the descriptor. The member
// lists hold each line exactly once, in insertion order.
func (t *Tx) cleanup() {
	s := t.space
	for _, l := range t.writeSet.members {
		s.line(l).writer.Store(0)
	}
	for _, l := range t.readSet.members {
		s.line(l).readers.And(^t.mask)
	}
	t.state.Store(packState(stInactive, env.Committed))
}

// Attempt runs body as one best-effort transaction on slot and returns
// Committed or the abort cause. Buffered stores are discarded on abort.
//
//sprwl:hotpath
func (s *Space) Attempt(slot int, opts env.TxOpts, body func(tx env.TxAccessor)) (cause env.AbortCause) {
	t := &s.txs[slot]
	t.begin(opts)
	defer func() {
		if r := recover(); r != nil {
			ap, ok := r.(abortPanic)
			if !ok {
				// A non-transactional panic (a bug in the body):
				// release metadata, then propagate.
				t.doom(env.AbortExplicit)
				t.cleanup()
				panic(r)
			}
			t.cleanup()
			cause = ap.cause
		}
	}()
	body(t)
	return t.commit()
}
