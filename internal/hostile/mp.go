package hostile

import (
	"fmt"
	"math/rand"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/locks"
	"sprwl/internal/memmodel"
)

// Multi-process worker protocol: a SpinMutex-guarded counter replicated in
// a mirror word, with reader flags, an owner advertisement, a recovery
// token, and a per-writer redo journal — the smallest protocol that has
// the same fence structure as the SpRWL fallback path (flag-then-check
// readers against a lock-then-drain writer) while surviving SIGKILL at any
// of its fence points. Workers never block on a primitive that a dead
// process could hold: every wait loop polls deadness and runs recovery.
//
// Crash points name the protocol's fence windows: reader-flagged (after a
// reader raises its flag, before its body — the dead-reader revocation
// case, BRAVO arXiv 1810.01553), writer-advertised (after a writer takes
// the lock, before it drains readers — the ownerless-lock case) and
// writer-mid-body, between the journal publish and the counter store — the
// window that forces the journal roll-forward path.
const (
	CrashReaderFlagged    = "reader-flagged"
	CrashWriterAdvertised = "writer-advertised"
	CrashWriterMidBody    = "writer-mid-body"
)

// CrashPoints returns every crash point the harness can inject.
func CrashPoints() []string {
	return []string{CrashReaderFlagged, CrashWriterAdvertised, CrashWriterMidBody}
}

// Arena layout, in lines of memmodel.LineWords words. Word addresses.
const (
	mpMagicWord = 0 // layout guard
	mpWorkers   = 1
	mpGate      = 2 // start barrier: parent raises after all ready
	mpReady     = 3 // workers increment when mapped and planned

	mpLock     = 1 * memmodel.LineWords // SpinMutex word
	mpOwner    = 2 * memmodel.LineWords // holder+1, 0 = none
	mpRecovery = 3 * memmodel.LineWords // recoverer+1, 0 = none
	mpCounter  = 4 * memmodel.LineWords
	mpMirror   = mpCounter + 1

	mpPerWorker = 5 * memmodel.LineWords // first worker line
	// Per worker: one status line + one journal line.
	wFlag    = 0 // reader flag
	wDead    = 1 // set by the parent after SIGKILL+Wait
	wFence   = 2 // worker parked at its crash fence, awaiting the kill
	wDone    = 3 // worker completed its plan
	wTorn    = 4 // torn counter/mirror observations
	wReads   = 5 // completed read sections
	wJSeq    = memmodel.LineWords + 0
	wJOld    = memmodel.LineWords + 1
	wJDelta  = memmodel.LineWords + 2
	wApplied = memmodel.LineWords + 3

	mpMagic = 0x5350525748_0a // "SPRWH"
)

func workerBase(w int) memmodel.Addr {
	return memmodel.Addr(mpPerWorker + w*2*memmodel.LineWords)
}

// MPArenaWords returns the arena capacity for n workers.
func MPArenaWords(n int) int { return mpPerWorker + n*2*memmodel.LineWords }

// MPOp is one scripted worker operation.
type MPOp struct {
	Write bool
	Delta uint64 // 1..16; zero-delta writes would defeat roll-forward disambiguation
}

// MPPlan regenerates worker w's deterministic schedule — both sides of the
// exec boundary derive the same script from (seed, worker), so the parent
// can pick crash sites and predict applied counts without IPC.
func MPPlan(seed int64, worker, nops int) []MPOp {
	rng := rand.New(rand.NewSource(seed*1009 + int64(worker)))
	ops := make([]MPOp, nops)
	for i := range ops {
		if rng.Intn(100) < 30 {
			ops[i] = MPOp{Write: true, Delta: uint64(1 + rng.Intn(16))}
		}
	}
	return ops
}

// MPWorker is one worker process's execution state.
type MPWorker struct {
	A       *Arena
	ID      int
	Workers int
	Seed    int64
	Ops     int

	// CrashPoint/CrashOp, when CrashPoint is nonempty, name the fence at
	// which this worker parks and waits to be SIGKILLed: on reaching op
	// CrashOp's fence it raises its wFence word and spins forever.
	CrashPoint string
	CrashOp    int

	lk       locks.SpinMutex
	deadline time.Time
}

// mpDeadline bounds every worker wait loop; a protocol bug must surface as
// a non-zero exit, not a hung process tree.
const mpDeadline = 60 * time.Second

func (w *MPWorker) addr(word int) memmodel.Addr { return memmodel.Addr(word) }
func (w *MPWorker) mine(off int) memmodel.Addr  { return workerBase(w.ID) + memmodel.Addr(off) }
func (w *MPWorker) peer(j, off int) memmodel.Addr {
	return workerBase(j) + memmodel.Addr(off)
}

// Run executes the worker's plan. It returns an error on protocol failure
// or deadline; a worker scripted to crash never returns (it spins at its
// fence until the parent kills it).
func (w *MPWorker) Run() error {
	e := w.A.Env(w.Workers)
	w.lk = locks.NewSpinMutex(e, memmodel.Addr(mpLock))
	w.deadline = time.Now().Add(mpDeadline)
	if e.Load(w.addr(mpMagicWord)) != mpMagic {
		return fmt.Errorf("worker %d: bad arena magic", w.ID)
	}

	// Start barrier: advertise readiness, then wait for the gate.
	e.Add(w.addr(mpReady), 1)
	for e.Load(w.addr(mpGate)) == 0 {
		if err := w.tick(); err != nil {
			return err
		}
		e.Yield()
	}

	plan := MPPlan(w.Seed, w.ID, w.Ops)
	var seq uint64 // this worker's write sequence number
	for i, op := range plan {
		crashHere := w.CrashPoint != "" && i == w.CrashOp
		if op.Write {
			seq++
			if err := w.write(e, seq, op.Delta, crashHere); err != nil {
				return fmt.Errorf("worker %d op %d: %w", w.ID, i, err)
			}
		} else {
			if err := w.read(e, crashHere); err != nil {
				return fmt.Errorf("worker %d op %d: %w", w.ID, i, err)
			}
		}
	}
	e.Store(w.mine(wDone), 1)
	return nil
}

// crashPark raises the fence word and spins until SIGKILL. Never returns.
func (w *MPWorker) crashPark(e env.Env) {
	e.Store(w.mine(wFence), 1)
	for {
		time.Sleep(time.Millisecond)
	}
}

func (w *MPWorker) tick() error {
	if time.Now().After(w.deadline) {
		return fmt.Errorf("deadline exceeded")
	}
	return nil
}

// write is the fallback-writer analogue: acquire, advertise, drain flagged
// readers (revoking dead ones), journal, apply, retire.
func (w *MPWorker) write(e env.Env, seq, delta uint64, crashHere bool) error {
	// Acquire with recovery: a dead holder never unlocks, so Lock() is
	// forbidden — TryLock and watch for a corpse.
	//sprwl:allow(spanleak) deliberate: the deadline return inside the spin loop runs only while TryLock keeps failing (lock not held), and the crash-injection paths die holding the lock by design — recovery, not release, is the protocol
	for tries := 0; !w.lk.TryLock(); tries++ {
		if tries%256 == 255 {
			w.maybeRecover()
			if err := w.tick(); err != nil {
				return fmt.Errorf("acquiring lock: %w", err)
			}
		}
		e.Yield()
	}
	// Deferred so the deadline-error returns inside the drain loop release
	// the lock too. The crashPark paths never return, so the victim dies
	// holding it — which is the point.
	defer w.lk.Unlock()
	e.Store(w.addr(mpOwner), uint64(w.ID+1))

	if crashHere && w.CrashPoint == CrashWriterAdvertised {
		w.crashPark(e) // lock held, owner advertised, readers undrained
	}

	// Drain: wait for every peer's reader flag to clear, revoking flags
	// abandoned by the dead.
	for j := 0; j < w.Workers; j++ {
		if j == w.ID {
			continue
		}
		for e.Load(w.peer(j, wFlag)) == 1 {
			if e.Load(w.peer(j, wDead)) == 1 {
				// Dead-reader revocation: the corpse can never
				// depart; clear its flag on its behalf.
				e.Store(w.peer(j, wFlag), 0)
				break
			}
			if err := w.tick(); err != nil {
				e.Store(w.addr(mpOwner), 0)
				return fmt.Errorf("draining reader %d: %w", j, err)
			}
			e.Yield()
		}
	}

	// Journal, publish, apply. jseq is published last in the journal
	// write and first consulted by recovery: jseq > applied means the
	// journaled intent may not have reached the counter.
	old := e.Load(w.addr(mpCounter))
	e.Store(w.mine(wJOld), old)
	e.Store(w.mine(wJDelta), delta)
	e.Store(w.mine(wJSeq), seq)

	if crashHere && w.CrashPoint == CrashWriterMidBody {
		w.crashPark(e) // journal published, counter not yet updated
	}

	e.Store(w.addr(mpCounter), old+delta)
	e.Store(w.addr(mpMirror), old+delta)
	e.Store(w.mine(wApplied), seq)

	e.Store(w.addr(mpOwner), 0)
	return nil
}

// read is the uninstrumented-reader analogue: flag, check the lock, run
// the body (a torn-pair check), unflag.
func (w *MPWorker) read(e env.Env, crashHere bool) error {
	for {
		e.Store(w.mine(wFlag), 1) // flag first...
		if crashHere && w.CrashPoint == CrashReaderFlagged {
			w.crashPark(e) // flag raised, body not entered
		}
		if !w.lk.IsLocked() { // ...then check (pairs with lock-then-drain)
			break
		}
		e.Store(w.mine(wFlag), 0)
		for w.lk.IsLocked() {
			w.maybeRecover()
			if err := w.tick(); err != nil {
				return fmt.Errorf("waiting for writer: %w", err)
			}
			e.Yield()
		}
	}
	c := e.Load(w.addr(mpCounter))
	m := e.Load(w.addr(mpMirror))
	if c != m {
		e.Store(w.mine(wTorn), e.Load(w.mine(wTorn))+1)
	}
	e.Store(w.mine(wFlag), 0)
	e.Store(w.mine(wReads), e.Load(w.mine(wReads))+1)
	return nil
}

// maybeRecover frees the lock if its advertised owner is dead, completing
// any published-but-unapplied journal entry first (roll-forward). The
// recovery token serializes recoverers; the dead owner cannot race us —
// that is what dead means.
func (w *MPWorker) maybeRecover() {
	RecoverArena(w.A, w.Workers, w.ID)
}

// RecoverArena runs one recovery attempt on behalf of claimant (worker ID,
// or -1 for the parent's post-mortem settlement pass). It is idempotent
// and safe to call at any time: it only acts when the lock's advertised
// owner is marked dead, and the recovery token admits one recoverer.
func RecoverArena(a *Arena, workers, claimant int) {
	e := a.Env(workers)
	o := e.Load(memmodel.Addr(mpOwner))
	if o == 0 || int(o-1) >= workers {
		return
	}
	dead := workerBase(int(o-1)) + wDead
	if e.Load(dead) != 1 {
		return
	}
	if !e.CAS(memmodel.Addr(mpRecovery), 0, uint64(claimant+2)) {
		return // someone else is recovering
	}
	// Re-verify under the token: the owner word may have moved while we
	// raced for it.
	if e.Load(memmodel.Addr(mpOwner)) == o && e.Load(dead) == 1 {
		base := workerBase(int(o - 1))
		jseq := e.Load(base + wJSeq)
		applied := e.Load(base + wApplied)
		if jseq > applied {
			// The journal published an intent the counter may not
			// reflect. The lock was held from publish to death, so
			// the counter is frozen at jold or jold+jdelta; either
			// way, completing the write is correct and makes the
			// dead worker's applied count deterministic.
			old := e.Load(base + wJOld)
			delta := e.Load(base + wJDelta)
			c := e.Load(memmodel.Addr(mpCounter))
			if c == old || c == old+delta {
				e.Store(memmodel.Addr(mpCounter), old+delta)
				e.Store(memmodel.Addr(mpMirror), old+delta)
				e.Store(base+wApplied, jseq)
			}
		}
		e.Store(memmodel.Addr(mpOwner), 0)
		e.Store(memmodel.Addr(mpLock), 0) // release the corpse's lock
	}
	e.Store(memmodel.Addr(mpRecovery), 0)
}

// InitArena stamps a freshly created parent arena.
func InitArena(a *Arena, workers int) {
	e := a.Env(workers)
	e.Store(memmodel.Addr(mpWorkers), uint64(workers))
	e.Store(memmodel.Addr(mpMagicWord), mpMagic)
}
