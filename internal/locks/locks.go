// Package locks implements the pessimistic read-write lock baselines the
// paper evaluates SpRWL against (§2, §4): the pthread-style RWLock and the
// Linux Big Reader Lock (BRLock) — plus the spin mutex used as the
// single-global-lock fallback by the HTM-based algorithms.
//
// All lock state lives in simulated memory and is manipulated through an
// env.Env, so the same implementations run under the real concurrent
// runtime and under the discrete-event simulator that regenerates the
// paper's figures. Instrumentation goes through per-thread obs rings:
// completed critical sections are EvSection events in ModePessimistic, and
// acquisition stalls that actually paused are EvWait events with the
// WaitLock reason.
package locks

import (
	"sprwl/internal/env"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/park"
)

// SpinLocked is the value a held SpinMutex's word reads — the expected
// value waiters park on.
const SpinLocked = uint64(1)

// SpinMutex is a test-and-test-and-set lock on a single simulated word,
// with spin-then-park waiting (package park) on environments that provide
// a parker. It is the single-global-lock (SGL) fallback primitive of the
// HTM-based algorithms and the building block of BRLock.
type SpinMutex struct {
	e   env.Env
	a   memmodel.Addr
	hub park.Hub
}

// NewSpinMutex builds a mutex over the word at a, which must read zero
// (unlocked).
func NewSpinMutex(e env.Env, a memmodel.Addr) SpinMutex {
	return SpinMutex{e: e, a: a, hub: park.HubFor(e)}
}

// Addr returns the lock word's address, for transactional subscription.
func (m SpinMutex) Addr() memmodel.Addr { return m.a }

// Lock acquires the mutex: test-and-test-and-set with spin-then-park.
//
//sprwl:model
func (m SpinMutex) Lock() {
	w := park.Waiter{E: m.e, P: m.hub.Parker(), Pol: park.SpinPark()}
	for {
		if m.e.Load(m.a) == 0 && m.e.CAS(m.a, 0, SpinLocked) {
			return
		}
		w.Pause(m.a, SpinLocked, 0)
	}
}

// TryLock attempts a single acquisition.
func (m SpinMutex) TryLock() bool {
	return m.e.Load(m.a) == 0 && m.e.CAS(m.a, 0, SpinLocked)
}

// Unlock releases the mutex and wakes parked waiters (store-then-wake).
//
//sprwl:model
func (m SpinMutex) Unlock() {
	m.e.Store(m.a, 0)
	m.hub.Wake(m.a)
}

// Wake re-wakes parked waiters without changing the lock word, for owners
// whose release consists of a phase store elsewhere (the §3.3 versioned
// SGL bumps its version while the lock stays held).
//
//sprwl:model
func (m SpinMutex) Wake() { m.hub.Wake(m.a) }

// IsLocked reports the lock word's current state.
//
//sprwl:model
func (m SpinMutex) IsLocked() bool { return m.e.Load(m.a) != 0 }

// blockingLock acquires m with the pessimistic spin-then-block wait
// strategy (park.Pessimistic), reporting the stall (if any) through ring.
func blockingLock(e env.Env, m SpinMutex, ring *obs.Ring, rw uint8, csID int) {
	w := park.Waiter{E: e, P: m.hub.Parker(), Pol: park.Pessimistic()}
	for !m.TryLock() {
		w.Pause(m.a, SpinLocked, 0)
	}
	w.Report(ring, obs.WaitLock, rw, csID)
}
