package core

import (
	"sprwl/internal/env"
	"sprwl/internal/locks"
	"sprwl/internal/obs"
	"sprwl/internal/park"
	"sprwl/internal/rwlock"
)

// Read implements rwlock.Handle: a SpRWL read-only critical section.
//
// With ReaderHTMFirst the body first runs as a plain elided transaction
// (§3.4); on capacity aborts or budget exhaustion it falls back to the
// paper's uninstrumented reader path: reader synchronization (Alg. 2), then
// flag-and-check against the fallback lock (Alg. 1), then the body runs
// with direct, fence-ordered accesses, untracked by any transaction.
//
//sprwl:hotpath
//sprwl:model
func (h *handle) Read(csID int, body rwlock.Body) {
	l := h.l
	start := l.e.Now()

	// Dynamic handles (slot < 0) skip the slot-keyed refinements: HTM
	// attempts need an environment slot, and the clock/sampling words
	// are per-slot arrays.
	if l.opts.ReaderHTMFirst && h.slot >= 0 && h.readTryHTM(csID, start, body) {
		return
	}

	if l.opts.ReaderSync {
		h.readersWait(csID)
	}
	if l.opts.WriterSync && h.slot >= 0 {
		// Advertise our predicted end time for Alg. 3's writer_wait,
		// after reader synchronization and before starting (§3.2.2).
		l.e.Store(l.clockRAddr(h.slot), l.est.EndTime(csID, l.e.Now()))
	}

	h.flagReaderAndSyncGL(csID)

	bodyStart := l.e.Now()
	body(l.e)
	bodyCycles := l.e.Now() - bodyStart

	// Release order per Alg. 1: the critical section's loads are ordered
	// before the flag reset (the environment's accesses are sequentially
	// consistent, subsuming the paper's mem_fence).
	h.unflagReader()
	if l.opts.WriterSync && h.slot >= 0 {
		l.e.Store(l.clockRAddr(h.slot), 0)
	}

	l.sample(h.slot, csID, bodyCycles)
	if l.opts.ReaderTracking == TrackAuto {
		h.recordReaderDuration(bodyCycles)
	}
	h.ring.Section(obs.Reader, csID, env.ModeUninstrumented, start, l.e.Now())
}

// readTryHTM attempts the read-only section as a hardware transaction and
// reports whether it committed. Capacity aborts fall back immediately; other
// aborts burn budget (§3.4, same retry policy as writers).
func (h *handle) readTryHTM(csID int, start uint64, body rwlock.Body) bool {
	l := h.l
	h.txBody = body
	committed := false
	for attempts := 0; attempts < l.opts.MaxRetries; {
		if l.gl.IsLocked() {
			// The fallback path is active; the uninstrumented path
			// knows how to synchronize with it.
			break
		}
		bodyStart := l.e.Now()
		cause := l.e.Attempt(h.slot, env.TxOpts{}, h.txRead)
		if cause == env.Committed {
			now := l.e.Now()
			l.sample(h.slot, csID, now-bodyStart)
			h.ring.Section(obs.Reader, csID, env.ModeHTM, start, now)
			committed = true
			break
		}
		h.ring.Abort(obs.Reader, csID, cause, l.e.Now())
		if cause == env.AbortCapacity {
			break
		}
		attempts++
	}
	h.txBody = nil
	return committed
}

// readersWait implements Alg. 2's Readers_Wait: wait for the active writer
// predicted to complete last, or join a reader that is already waiting.
//
//sprwl:model
func (h *handle) readersWait(csID int) {
	l := h.l
	wait := -1
	var maxWait uint64
	for i := 0; i < l.threads; i++ {
		if l.e.Load(l.stateAddr(i)) == stateWriter {
			if cw := l.e.Load(l.clockWAddr(i)); wait == -1 || cw > maxWait {
				maxWait = cw
				wait = i
			}
		} else if l.opts.JoinWaiters {
			if wf := l.e.Load(l.waitingForAddr(i)); wf != 0 {
				// Join the already-waiting reader: wait for the
				// same writer and start together with it.
				wait = int(wf - 1)
				break
			}
		}
	}
	if wait == -1 {
		return
	}
	waitStart := l.e.Now()
	if h.slot >= 0 {
		// Dynamic readers wait but cannot advertise joinable waits:
		// the waitingFor array is per-slot.
		l.e.Store(l.waitingForAddr(h.slot), uint64(wait+1))
	}
	// §3.4: sleep on the timestamp counter until the writer's predicted
	// end instead of hammering its state line.
	if t := l.e.Load(l.clockWAddr(wait)); t > l.e.Now() {
		l.e.WaitUntil(t)
	}
	// Spin-then-park on the writer's state word; the writer's retirement
	// store in finishWrite is followed by the wake. The writer's
	// advertised end time predicts the remaining wait (the §3.2.1
	// estimator feeds it), sending long waits straight to the parker —
	// the prediction load is gated on CanPark so spin-only environments
	// (the simulator's default) execute the historical access sequence.
	w := park.Waiter{E: l.e, P: l.parker, Pol: park.SpinPark()}
	a := l.stateAddr(wait)
	for l.e.Load(a) == stateWriter {
		var remaining uint64
		if w.CanPark() {
			if t := l.e.Load(l.clockWAddr(wait)); t > l.e.Now() {
				remaining = t - l.e.Now()
			}
		}
		w.Pause(a, stateWriter, remaining)
	}
	if h.slot >= 0 {
		l.e.Store(l.waitingForAddr(h.slot), 0)
	}
	h.ring.Wait(obs.WaitRSync, obs.Reader, csID, waitStart, l.e.Now())
	w.ReportParks(h.ring, obs.Reader, csID)
}

// flagReaderAndSyncGL publishes the reader's presence and resolves the
// interplay with the fallback lock (Alg. 1 lines 5–7 and 28–32): flag
// first, then check the lock; if the lock is held, retract, wait, retry.
// The flag-then-check order pairs with the fallback writer's lock-then-wait
// order so one of them always sees the other.
//
// With VersionedSGL (§3.3) a reader that finds the lock busy registers the
// version it observed; once the version moves past it, the reader may enter
// even though the lock is still held, because every fallback writer with a
// newer version gates its execution on (1) no reader registered against an
// older version and (2) no reader flag — and the reader transitions from
// registration to flag in that order, so it is visible to the writer in at
// least one of the two scans at every instant.
//
//sprwl:model
func (h *handle) flagReaderAndSyncGL(csID int) {
	l := h.l
	// The §3.3 registration words are per-slot; a dynamic reader takes
	// the plain flag-and-wait path even under VersionedSGL (it simply
	// does not overtake newer fallback writers).
	vsgl := l.opts.VersionedSGL && h.slot >= 0
	for {
		// Cheap pre-wait while the fallback lock is held (the reader
		// analogue of Alg. 1 line 34): without it, readers churn
		// flag/unflag cycles against a held lock, which keeps the
		// SNZI indicator flickering and can starve the fallback
		// writer's quiescence wait. The flag-then-check below remains
		// the safety handshake. (VersionedSGL readers must not park
		// here — §3.3 lets them overtake newer fallback writers.)
		if !vsgl {
			h.awaitGLClear(obs.Reader, csID)
		}
		h.flagReader()
		if !l.gl.IsLocked() {
			return
		}
		h.unflagReader()
		if !vsgl {
			h.awaitGLClear(obs.Reader, csID)
			continue
		}
		// Register against the observed version, validating that the
		// version did not advance concurrently — a writer that bumps
		// the version after the validation read must scan readerVer
		// after its bump, and therefore sees the registration. Each
		// registration store is followed by a wake: a fallback writer
		// may be parked on this word from its §3.3 drain, and a store
		// that moves the registration past its version must not leave
		// it asleep.
		var observed uint64
		for {
			observed = l.e.Load(l.glVer)
			l.e.Store(l.readerVerAddr(h.slot), observed+1)
			l.wakes.Wake(l.readerVerAddr(h.slot))
			if l.e.Load(l.glVer) == observed {
				break
			}
		}
		// Wait for the lock to clear or the version to move past us.
		// This wait must spin: it exits on a disjunction over two words
		// (lock word clears, or glVer advances), and Table.Park's
		// internal re-check can only re-validate the single parked
		// word. Parking on the lock word loses the version exit — a
		// writer can bump glVer and wake the lock word before our
		// waiter count is visible, then park in its own §3.3 drain
		// waiting for the registration we will never retire: a
		// lost-wakeup cycle (found by sprwl-model on vsgl-1r1w).
		waitStart := l.e.Now()
		w := park.Waiter{E: l.e, Pol: park.SpinPark()}
		glAddr := l.gl.Addr()
		for l.gl.IsLocked() && l.e.Load(l.glVer) <= observed {
			w.Pause(glAddr, locks.SpinLocked, 0)
		}
		h.ring.Wait(obs.WaitGL, obs.Reader, csID, waitStart, l.e.Now())
		w.ReportParks(h.ring, obs.Reader, csID)
		if l.gl.IsLocked() {
			// The version moved past us: the current fallback
			// writer is gated on our registration. Flag first,
			// then retire the registration (flagReader does both,
			// in that order), and enter.
			h.flagReader()
			return
		}
		// Lock released: take the normal re-flag path (flagReader
		// clears the registration).
	}
}

//sprwl:model
func (h *handle) flagReader() {
	l := h.l
	for {
		target := trackTarget(l.trackingMode())
		h.arriveIn(target)
		if l.opts.ReaderTracking != TrackAuto {
			break
		}
		// Re-validate after flagging: the self-tuning controller may
		// have completed a tracking switch between our mode read and
		// our flag, in which case writers no longer check the
		// structure we used.
		if covered(target, l.e.Load(l.trackMode)) {
			break
		}
		h.departFrom(target)
	}
	if l.opts.VersionedSGL && h.slot >= 0 {
		// Retire any §3.3 wait registration only after the flag is
		// visible, so a gated fallback writer always sees one or the
		// other; then wake the fallback writer possibly parked on the
		// registration word (store-then-wake).
		l.e.Store(l.readerVerAddr(h.slot), 0)
		l.wakes.Wake(l.readerVerAddr(h.slot))
	}
}

//sprwl:model
func (h *handle) unflagReader() { h.departFrom(h.flaggedIn) }
