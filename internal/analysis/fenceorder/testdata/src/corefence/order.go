// Package core mirrors the shape of the real internal/core protocol code
// so the flow-sensitive fenceorder analyzer can be exercised on reduced
// functions. Every bad* function in this file is ordered correctly in
// SOURCE order and violates a fence only on some CFG path, which is the
// case a source-order check misses; straight.go and writer.go hold the
// plain source-order violations. The analyzer gates on the package name
// "core".
package core

import (
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
)

type envT struct{}

func (envT) Load(a memmodel.Addr) uint64     { return 0 }
func (envT) Store(a memmodel.Addr, v uint64) {}
func (envT) Abort(code uint64)               {}

// hubT mirrors park.Hub: the wake endpoint of the phase-word protocol.
type hubT struct{}

func (hubT) Wake(a memmodel.Addr) {}

// glT mirrors locks.SpinMutex as the core sees it: held-check, parkable
// address, and the version-bump wake.
type glT struct{}

func (glT) IsLocked() bool      { return false }
func (glT) Addr() memmodel.Addr { return 256 }
func (glT) Wake()               {}

// waiterT mirrors park.Waiter's spin-then-park step.
type waiterT struct{}

func (waiterT) Pause(a memmodel.Addr, expected, remaining uint64) {}

const (
	stateEmpty  = 0
	stateWriter = 2
)

type lock struct {
	e     envT
	glVer memmodel.Addr
	wakes hubT
	gl    glT
}

func (l *lock) stateAddr(i int) memmodel.Addr     { return memmodel.Addr(i) }
func (l *lock) clockWAddr(i int) memmodel.Addr    { return memmodel.Addr(i + 64) }
func (l *lock) readerVerAddr(i int) memmodel.Addr { return memmodel.Addr(i + 128) }

func (l *lock) flagReader()   {}
func (l *lock) unflagReader() {}

func cond() bool { return false }

// badAdvertiseSkipsClock stores the clock before the advertise in source
// order, but only on the fast path: the other path reaches the advertise
// with a stale clock (F2).
func (l *lock) badAdvertiseSkipsClock(fast bool) {
	if fast {
		l.e.Store(l.clockWAddr(0), 1)
	}
	l.e.Store(l.stateAddr(0), stateWriter) // want `a path reaches this stateWriter advertise without storing the writer clock`
}

// goodAdvertise is the real Write shape: clock and advertise on the same
// path.
func (l *lock) goodAdvertise(sync bool) {
	if sync {
		l.e.Store(l.clockWAddr(0), 1)
		l.e.Store(l.stateAddr(0), stateWriter)
	}
}

// badLoopReflag retracts after the body in source order, but the continue
// path re-runs the body with the flag already down (F1).
func (l *lock) badLoopReflag(body rwlock.Body) {
	l.flagReader()
	for {
		body(nil) // want `a path reaches this critical-section body with the reader flag already retracted`
		l.unflagReader()
		if cond() {
			continue
		}
		break
	}
}

// goodLoopReflag re-flags at the top of every iteration, killing the
// retracted fact on the back edge.
func (l *lock) goodLoopReflag(body rwlock.Body) {
	for {
		l.flagReader()
		body(nil)
		l.unflagReader()
		if !cond() {
			break
		}
	}
}

// badClearThenLoop clears the state slot (a retract) at the bottom of the
// loop; the back edge re-enters the body uncovered (F1).
func (l *lock) badClearThenLoop(body rwlock.Body) {
	l.flagReader()
	for cond() {
		body(nil) // want `a path reaches this critical-section body with the reader flag already retracted`
		l.e.Store(l.stateAddr(0), stateEmpty)
		l.wakes.Wake(l.stateAddr(0))
	}
}

// badConditionalFlag flags before the retire in source order, but only on
// the slow path: the other path retires readerVer uncovered (F3).
func (l *lock) badConditionalFlag(slow bool) {
	if slow {
		l.flagReader()
	}
	l.e.Store(l.readerVerAddr(0), 0) // want `a path reaches this readerVer retire \(store of zero\) with the reader not flagged`
	l.wakes.Wake(l.readerVerAddr(0))
}

// goodArriveLoop mirrors the real flagReader: every loop exit is
// post-arrival, so the retire is covered on all paths even though a
// retract occurs inside the loop.
func (l *lock) goodArriveLoop() {
	for {
		l.flagReader()
		if cond() {
			break
		}
		l.unflagReader()
	}
	l.e.Store(l.readerVerAddr(0), 0)
	l.wakes.Wake(l.readerVerAddr(0))
}

// badConditionalValidate is followed by a glVer load in source order, but
// the early-return path skips the validation (F4).
func (l *lock) badConditionalValidate(unlucky bool) {
	l.e.Store(l.readerVerAddr(0), 7) // want `a path from this readerVer registration reaches return without a glVer validation load`
	l.wakes.Wake(l.readerVerAddr(0))
	if unlucky {
		return
	}
	_ = l.e.Load(l.glVer)
}

// goodRegisterValidate mirrors the real flagReaderAndSyncGL registration
// loop: the validation load sits on every path out of the store.
func (l *lock) goodRegisterValidate() {
	observed := l.e.Load(l.glVer)
	l.e.Store(l.readerVerAddr(0), observed+1)
	l.wakes.Wake(l.readerVerAddr(0))
	if l.e.Load(l.glVer) != observed {
		l.e.Store(l.readerVerAddr(0), 0)
		l.wakes.Wake(l.readerVerAddr(0))
	}
}

// badEarlyReturn retracts after the body in source order, but the failure
// path returns with the flag still published (F5).
func (l *lock) badEarlyReturn(body rwlock.Body, fail bool) {
	l.flagReader()
	body(nil) // want `a path from this critical-section body reaches return without retracting the reader flag`
	if fail {
		return
	}
	l.unflagReader()
}

// goodAbortPath: the abort path terminates the function, so only the
// falling-through path needs the retract.
func (l *lock) goodAbortPath(body rwlock.Body, fail bool) {
	l.flagReader()
	body(nil)
	if fail {
		l.e.Abort(1)
	}
	l.unflagReader()
}

// goodRead is the real Read shape: flag, body, retract, straight through.
func (l *lock) goodRead(body rwlock.Body) {
	l.flagReader()
	body(nil)
	l.unflagReader()
}

// goodAttemptClosure mirrors the retry-attempt pattern: the literal is
// analyzed as its own function, and its flag/body/retract sequence is
// complete even though the enclosing function never flags.
func (l *lock) goodAttemptClosure(body rwlock.Body) func() {
	return func() {
		l.flagReader()
		body(nil)
		l.unflagReader()
	}
}

// badClosureEarlyReturn: violations inside literals are attributed to the
// literal's own CFG (F5 again, one scope down).
func (l *lock) badClosureEarlyReturn(body rwlock.Body, fail bool) func() {
	return func() {
		l.flagReader()
		body(nil) // want `a path from this critical-section body reaches return without retracting the reader flag`
		if fail {
			return
		}
		l.unflagReader()
	}
}

// allowedEarlyReturn is a deliberate, justified exception.
func (l *lock) allowedEarlyReturn(body rwlock.Body, fail bool) {
	l.flagReader()
	//sprwl:allow(fenceorder) fixture: deliberate exception for teardown paths
	body(nil)
	if fail {
		return
	}
	l.unflagReader()
}

// badRetireWakeSkipped wakes after the phase-word retire in source order,
// but only on the fast path: the other path returns with a reader still
// parked on the writer's state word (F6).
func (l *lock) badRetireWakeSkipped(fast bool) {
	l.e.Store(l.stateAddr(0), stateEmpty) // want `a path from this stateEmpty retire reaches return without waking the state word`
	if fast {
		l.wakes.Wake(l.stateAddr(0))
	}
}

// goodRetireWake is the real finishWrite shape: retire, then wake,
// unconditionally.
func (l *lock) goodRetireWake() {
	l.e.Store(l.stateAddr(0), stateEmpty)
	l.wakes.Wake(l.stateAddr(0))
}

// goodRetireAbortPath: the abort unwinds the transaction (rolling the store
// back), so only the falling-through path owes the wake.
func (l *lock) goodRetireAbortPath(fail bool) {
	l.e.Store(l.stateAddr(0), stateEmpty)
	if fail {
		l.e.Abort(1)
	}
	l.wakes.Wake(l.stateAddr(0))
}

// badRegisterWakeSkipped registers and validates correctly, but the wake of
// the registration word is conditional: a fallback writer parked on its
// §3.3 drain can sleep through the registration change (F6).
func (l *lock) badRegisterWakeSkipped(lucky bool) {
	l.e.Store(l.readerVerAddr(0), 7) // want `a path from this readerVer store reaches return without waking the registration word`
	if lucky {
		l.wakes.Wake(l.readerVerAddr(0))
	}
	_ = l.e.Load(l.glVer)
}

// goodSpinThenPark is the real readersWait shape, through a local alias of
// the watched address: the loop-condition load re-arms the check on the
// back edge, so every path into the park has a fresh check (F7 clean).
func (l *lock) goodSpinThenPark(w waiterT) {
	a := l.stateAddr(0)
	for l.e.Load(a) == stateWriter {
		w.Pause(a, stateWriter, 0)
	}
}

// badParkStale parks a second time without re-checking the word: the wake
// that announced the phase change was consumed by the first park, and the
// word may already hold the target value (F7).
func (l *lock) badParkStale(w waiterT) {
	a := l.stateAddr(0)
	for l.e.Load(a) == stateWriter {
		w.Pause(a, stateWriter, 0)
		w.Pause(a, stateWriter, 0) // want `a path reaches this park on the state word without re-checking it since the last park`
	}
}

// badParkCheckOutsideLoop checks the word once before the loop; the back
// edge re-parks on the stale check (F7 — the violation is path-sensitive:
// the first iteration is fine).
func (l *lock) badParkCheckOutsideLoop(w waiterT) {
	a := l.readerVerAddr(0)
	if l.e.Load(a) == 0 {
		return
	}
	for cond() {
		w.Pause(a, 1, 0) // want `a path reaches this park on the readerVer word without re-checking it since the last park`
	}
}

// goodParkGL is the real awaitGLClear shape: the held-check is the gl-word
// analogue of the load, re-armed by the loop condition.
func (l *lock) goodParkGL(w waiterT) {
	a := l.gl.Addr()
	for l.gl.IsLocked() {
		w.Pause(a, 1, 0)
	}
}

// badParkGLUnchecked parks on the fallback-lock word without ever checking
// it (F7).
func (l *lock) badParkGLUnchecked(w waiterT) {
	a := l.gl.Addr()
	w.Pause(a, 1, 0) // want `a path reaches this park on the gl word without re-checking it since the last park`
}
