package core

import (
	"sprwl/internal/env"
	"sprwl/internal/obs"
	"sprwl/internal/park"
	"sprwl/internal/rwlock"
)

// Write implements rwlock.Handle: a SpRWL updating critical section.
//
// The writer runs as a hardware transaction that subscribes to the fallback
// lock at begin and scans for active readers immediately before committing,
// self-aborting with the paper's "reader" cause if any is found (Alg. 1).
// With ReaderSync the writer first advertises itself in the state array
// along with its predicted end time, so arriving readers defer to it
// (Alg. 2); with WriterSync a reader-caused abort delays the retry so the
// writer is predicted to finish δ cycles after the last active reader
// (Alg. 3, δ = half the writer's expected duration). After MaxRetries
// attempts — immediately on a capacity abort — the writer takes the global
// fallback lock, waits for active readers to drain, and runs pessimistically.
//
//sprwl:hotpath
//sprwl:model
func (h *handle) Write(csID int, body rwlock.Body) {
	l := h.l
	start := l.e.Now()

	// Dynamic handles (slot < 0) cannot run hardware attempts (those
	// need an environment slot) or advertise in the per-slot state
	// array; they go straight to the fallback lock, which is always
	// correct for a writer.
	if h.slot < 0 {
		h.writeFallback(csID, start, body)
		return
	}

	if l.opts.ReaderSync {
		// Advertise before attempting, and keep the flag up across
		// retries and the fallback: this is what guarantees that a
		// writer activated before a reader cannot be aborted by it
		// (§3.2.1 fairness).
		l.e.Store(l.clockWAddr(h.slot), l.est.EndTime(csID, l.e.Now()))
		l.e.Store(l.stateAddr(h.slot), stateWriter)
	}

	h.txBody = body
	attempts := 0
	for {
		// Alg. 1 line 34: do not even start while the fallback lock
		// is held — the subscription inside would abort us at once.
		h.awaitGLClear(obs.Writer, csID)
		bodyStart := l.e.Now()
		cause := l.e.Attempt(h.slot, env.TxOpts{}, h.txWrite)
		if cause == env.Committed {
			h.txBody = nil
			l.sample(h.slot, csID, l.e.Now()-bodyStart)
			h.finishWrite(csID, start, env.ModeHTM)
			return
		}
		h.ring.Abort(obs.Writer, csID, cause, l.e.Now())
		attempts++
		if cause == env.AbortCapacity || attempts >= l.opts.MaxRetries {
			break
		}
		if l.opts.WriterSync && cause == env.AbortReader {
			h.writerWait(csID)
		}
	}

	h.txBody = nil
	h.writeFallback(csID, start, body)
}

// writeFallback is the pessimistic path (Alg. 1 lines 43–45): take the
// global lock, drain active readers, run directly.
//
//sprwl:model
func (h *handle) writeFallback(csID int, start uint64, body rwlock.Body) {
	l := h.l
	h.lockGL(csID)
	glAcquired := l.e.Now()
	h.waitForReaders(csID)
	bodyStart := l.e.Now()
	body(l.e)
	l.sample(h.slot, csID, l.e.Now()-bodyStart)
	h.restoreReaderBias()
	l.gl.Unlock()
	h.ring.SGL(csID, glAcquired, l.e.Now())
	h.finishWrite(csID, start, env.ModeGL)
}

// finishWrite retires the writer flag (after the commit, per Alg. 2's
// unlock order) and records bookkeeping. The retirement store is the phase
// word synchronized readers park on, so every writer-retire path is
// store-then-wake.
//
//sprwl:model
func (h *handle) finishWrite(csID int, start uint64, mode env.CommitMode) {
	l := h.l
	if l.opts.ReaderSync && h.slot >= 0 {
		l.e.Store(l.stateAddr(h.slot), stateEmpty)
		l.wakes.Wake(l.stateAddr(h.slot))
		if l.wakes.Enabled() {
			h.ring.Park(obs.ParkWake, obs.Writer, csID, l.e.Now(), 0)
		}
	}
	h.ring.Section(obs.Writer, csID, mode, start, l.e.Now())
}

// checkForReaders is Alg. 1's commit-time check, executed inside the
// transaction: abort with the "reader" cause if any uninstrumented reader
// is active. With SNZI the check is a single-word (single-line) read; with
// the flag array it reads one word per thread (one line per eight threads),
// which is the footprint trade-off Fig. 6 measures.
func (h *handle) checkForReaders(tx env.TxAccessor) {
	l := h.l
	if l.opts.ReaderTracking != TrackAuto {
		h.checkBackend(tx, l.opts.ReaderTracking)
		return
	}
	// TrackAuto: read the mode (one stable line in the read set) and
	// check the structure(s) it covers.
	m := tx.Load(l.trackMode)
	h.checkBackend(tx, trackTarget(m))
	if d, ok := drainingBackend(m); ok {
		// Transition: readers may still be flagged in the structure
		// being drained.
		h.checkBackend(tx, d)
	}
}

// checkBackend aborts the writer if structure s holds an active reader.
func (h *handle) checkBackend(tx env.TxAccessor, s ReaderTracking) {
	l := h.l
	var active bool
	switch s {
	case TrackSNZI:
		active = l.indSNZI.Check(tx, -1)
	case TrackBravo:
		active = l.indBravo.Check(tx, -1)
	default:
		active = l.indFlags.Check(tx, h.slot)
	}
	if active {
		tx.Abort(env.AbortReader)
	}
}

// writerWait is Alg. 3's writer_wait: delay the retry so that the write
// critical section is predicted to complete δ cycles after the last active
// reader, overlapping with readers as much as possible while still
// committing after they finish. δ defaults to half the writer's expected
// duration (§3.2.2).
func (h *handle) writerWait(csID int) {
	l := h.l
	var wait uint64
	for i := 0; i < l.threads; i++ {
		if i == h.slot {
			continue
		}
		if cr := l.e.Load(l.clockRAddr(i)); cr > wait {
			wait = cr
		}
	}
	if wait == 0 {
		return
	}
	dur, ok := l.est.Duration(csID)
	if ok {
		delta := dur / 2
		wait -= dur - delta // i.e. wait - dur + δ
	}
	if now := l.e.Now(); wait > now {
		l.e.WaitUntil(wait)
		h.ring.Wait(obs.WaitWSync, obs.Writer, csID, now, l.e.Now())
	}
}

// lockGL acquires the fallback lock and, with VersionedSGL, performs the
// §3.3 writer-side gating: bump the version, then wait until no reader is
// registered against an older version. The registration scan precedes
// waitForReaders; a reader moving from registration to flag does so in the
// opposite order, so it is visible in at least one scan at every moment.
//
//sprwl:model
func (h *handle) lockGL(csID int) {
	l := h.l
	l.gl.Lock()
	if !l.opts.VersionedSGL {
		return
	}
	myver := l.e.Add(l.glVer, 1)
	// The bump is the phase store §3.3 readers parked on the lock word
	// are watching for (it lets them overtake us), so wake them.
	l.gl.Wake()
	// Drain readers registered against older versions, parking on each
	// registration word; readers follow every store to it with a wake.
	w := park.Waiter{E: l.e, P: l.parker, Pol: park.SpinPark()}
	for i := 0; i < l.threads; i++ {
		if i == h.slot {
			continue
		}
		a := l.readerVerAddr(i)
		for {
			rv := l.e.Load(a)
			if rv == 0 || rv-1 >= myver {
				break
			}
			w.Pause(a, rv, 0)
		}
	}
	w.Report(h.ring, obs.WaitDrain, obs.Writer, csID)
}

// waitForReaders is Alg. 1's wait_for_readers, executed after acquiring the
// fallback lock: wait (at most once per thread) for every active
// uninstrumented reader to finish. New readers cannot start meanwhile —
// they flag, observe the held lock, retract, and wait — which is what makes
// this wait finite even under a constant reader stream (§3.3).
//
//sprwl:model
func (h *handle) waitForReaders(csID int) {
	l := h.l
	drainStart := l.e.Now()
	if l.indBravo != nil {
		// Revoke read bias first (BRAVO §3): new arrivals go to the
		// overflow line, so draining the slot table converges even
		// under a constant reader stream. Bias is restored just before
		// the fallback lock is released.
		l.indBravo.Revoke()
		h.ring.Readers(obs.ReadersRevoked, csID, l.e.Now())
	}
	if l.opts.ReaderTracking == TrackAuto {
		// Adaptive mode: readers may be flagged in any structure (a
		// tracking transition can be mid-flight).
		l.indSNZI.Drain(l.e)
		l.indBravo.Drain(l.e)
		l.indFlags.Drain(l.e)
	} else {
		l.drainBackend(l.opts.ReaderTracking)
	}
	h.ring.Wait(obs.WaitDrain, obs.Writer, csID, drainStart, l.e.Now())
}

// restoreReaderBias re-enables BRAVO read bias at the end of a fallback
// write, while the fallback lock is still held (so Revoke/Restore pairs
// are serialized by the lock).
//
//sprwl:model
func (h *handle) restoreReaderBias() {
	if l := h.l; l.indBravo != nil {
		l.indBravo.Restore()
	}
}

var _ rwlock.Handle = (*handle)(nil)
