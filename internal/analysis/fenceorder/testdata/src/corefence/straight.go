package core

// The fixtures in this file are wrong in plain source order, so they are
// wrong on every path. Each bad* function breaks exactly one rule; the
// rest of its shape (wakes, trailing retracts) is correct. The lock shape
// lives in order.go.

import (
	"sync/atomic"

	"sprwl/internal/rwlock"
)

// badRead retracts the reader flag before the body runs (F1).
func (l *lock) badRead(body rwlock.Body) {
	l.flagReader()
	l.unflagReader()
	body(nil) // want `a path reaches this critical-section body with the reader flag already retracted`
	l.unflagReader()
}

// badClear publishes the state slot as empty while the body is still in
// flight (F1).
func (l *lock) badClear(body rwlock.Body) {
	l.e.Store(l.stateAddr(0), stateEmpty)
	l.wakes.Wake(l.stateAddr(0))
	body(nil) // want `a path reaches this critical-section body with the reader flag already retracted`
}

// badRetire retires the versioned-SGL registration before the flag is up
// (F3).
func (l *lock) badRetire() {
	l.e.Store(l.readerVerAddr(0), 0) // want `a path reaches this readerVer retire \(store of zero\) with the reader not flagged`
	l.wakes.Wake(l.readerVerAddr(0))
	l.flagReader()
}

// goodRetire flags first and then wakes, exactly like the real flagReader.
func (l *lock) goodRetire() {
	l.flagReader()
	l.e.Store(l.readerVerAddr(0), 0)
	l.wakes.Wake(l.readerVerAddr(0))
}

// badAtomic bypasses the simulated memory model (Rule E).
func badAtomic(x *uint64) {
	atomic.AddUint64(x, 1) // want `direct sync/atomic call atomic.AddUint64`
}

// allowedAtomic is a deliberate, justified exception to the same rule.
func allowedAtomic(x *uint64) {
	//sprwl:allow(fenceorder) fixture: deliberate exception for auxiliary state
	atomic.AddUint64(x, 1)
}
