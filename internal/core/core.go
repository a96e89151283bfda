// Package core implements SpRWL, the Speculative Read-Write Lock of Issa,
// Romano and Lopes (Middleware '18) — the paper's primary contribution.
//
// Writers execute as best-effort hardware transactions (package htm) with a
// single-global-lock fallback; readers execute uninstrumented, outside any
// transaction, and are therefore immune to HTM capacity and interrupt
// limits. Safety comes from the commit-time reader check plus HTM's strong
// isolation (§3.1): a writer scans the per-thread state array (or the SNZI
// indicator) inside its transaction immediately before committing and
// self-aborts if any reader is active; a reader that flags itself after the
// writer's check dooms the writer through strong isolation, because the
// flag store hits the writer's transactional read set.
//
// On top of the base algorithm sit the two scheduling schemes of §3.2 —
// reader synchronization (readers wait for the active writer predicted to
// finish last, joining already-waiting readers) and writer synchronization
// (a writer aborted by a reader delays its retry so that it is predicted to
// finish δ cycles after the last active reader) — and the optimizations of
// §3.4 (readers attempt HTM first, SNZI-based reader tracking, timed reader
// waits) plus the §3.3 versioned-SGL anti-starvation scheme. Every feature
// but the timed wait, which every evaluated variant uses, is individually
// switchable through Options, which is how the Fig. 5 ablation (NoSched /
// RWait / RSync / SpRWL) and the Fig. 6 SNZI study are produced.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sprwl/internal/ema"
	"sprwl/internal/env"
	"sprwl/internal/locks"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/park"
	"sprwl/internal/readers"
	"sprwl/internal/rwlock"
	"sprwl/internal/snzi"
)

// Per-thread state-array values (paper Alg. 1/2).
const (
	stateEmpty  = 0 // ⊥
	stateReader = 1 // #READER
	stateWriter = 2 // #WRITER
)

// Options selects SpRWL's scheduling schemes and optimizations.
type Options struct {
	// ReaderSync enables the §3.2.1 reader synchronization scheme:
	// arriving readers wait for active writers (paper Alg. 2).
	ReaderSync bool

	// JoinWaiters lets an arriving reader join a reader that is already
	// waiting for a writer instead of picking its own writer to wait for
	// (the RSync refinement of Alg. 2; disabling it yields the paper's
	// RWait ablation variant).
	JoinWaiters bool

	// WriterSync enables the §3.2.2 writer synchronization scheme: a
	// writer aborted by an active reader delays its retry to finish δ
	// cycles after the last reader (paper Alg. 3).
	WriterSync bool

	// ReaderHTMFirst makes readers attempt HTM before falling back to
	// the uninstrumented path (§3.4), which keeps SpRWL competitive with
	// plain lock elision when readers fit in hardware.
	ReaderHTMFirst bool

	// ReaderTracking selects the structure readers publish themselves
	// in, which is what the writer's commit-time check reads (§3.4,
	// Fig. 6). The zero value is the per-thread flag array.
	ReaderTracking ReaderTracking

	// BravoSlots overrides the BRAVO table size (rounded to a power of
	// two in [4, 256]); 0 derives it from runtime.GOMAXPROCS.
	// Deterministic runs (the simulator harness) must pin it.
	BravoSlots int

	// AutoSNZIThreshold is the reader duration (cycles) above which
	// TrackAuto selects SNZI tracking; 0 selects
	// DefaultAutoSNZIThreshold.
	AutoSNZIThreshold uint64

	// VersionedSGL enables the §3.3 anti-starvation scheme: the fallback
	// lock carries a version, and a reader stops deferring to fallback
	// writers that acquired the lock after the reader started waiting.
	VersionedSGL bool

	// MaxRetries is the hardware attempt budget for writers, and for
	// readers under ReaderHTMFirst, before the fallback path activates;
	// capacity aborts skip the budget and fall back immediately (§4).
	// The paper uses 10.
	MaxRetries int
}

// ReaderTracking names a reader-tracking structure (package readers).
type ReaderTracking int

const (
	// TrackFlags is the per-thread state array of Alg. 1: one store per
	// arrival, one word per registered thread in the writer's check.
	TrackFlags ReaderTracking = iota

	// TrackSNZI is a Scalable NonZero Indicator: O(log n) arrivals, and
	// the writer's check is a single-line read (§3.4, Fig. 6).
	TrackSNZI

	// TrackBravo is a BRAVO-style sharded visible-readers table:
	// arrivals hash into cache-line-padded slots, so the writer's check
	// scans O(table slots) lines instead of one word per registered
	// thread, and slot-less dynamic handles (NewDynamicHandle) become
	// possible.
	TrackBravo

	// TrackAuto is the paper's §5 future-work self-tuning: the lock
	// measures reader durations and switches at runtime between the
	// flag array (cheapest readers), the BRAVO table (cheap readers,
	// bounded writer checks, dynamic-safe) and SNZI (cheapest writer
	// checks), using a transition protocol that keeps every active
	// reader visible to writers throughout.
	TrackAuto
)

// DefaultOptions returns the full SpRWL configuration the paper evaluates
// under the name "SpRWL": both scheduling schemes, HTM-first readers,
// flag-array reader tracking, and a 10-attempt budget. The §3.4 timed
// reader wait is not an option: readersWait always sleeps until the
// awaited writer's predicted end before spinning on its state entry.
func DefaultOptions() Options {
	return Options{
		ReaderSync:     true,
		JoinWaiters:    true,
		WriterSync:     true,
		ReaderHTMFirst: true,
		MaxRetries:     10,
	}
}

// NoSchedOptions is the paper's "NoSched" ablation: the §3.1 base algorithm
// with no scheduling at all.
func NoSchedOptions() Options {
	o := DefaultOptions()
	o.ReaderSync = false
	o.JoinWaiters = false
	o.WriterSync = false
	return o
}

// RWaitOptions is the paper's "RWait" ablation: readers wait for the writer
// predicted to finish last, but do not join already-waiting readers; no
// writer synchronization.
func RWaitOptions() Options {
	o := DefaultOptions()
	o.JoinWaiters = false
	o.WriterSync = false
	return o
}

// RSyncOptions is the paper's "RSync" ablation: full reader
// synchronization, no writer synchronization.
func RSyncOptions() Options {
	o := DefaultOptions()
	o.WriterSync = false
	return o
}

// SNZIOptions is the full configuration with SNZI reader tracking (the
// "SNZI" series of Figs. 6 and 7).
func SNZIOptions() Options {
	o := DefaultOptions()
	o.ReaderTracking = TrackSNZI
	return o
}

// BravoOptions is the full configuration with BRAVO-table reader tracking:
// O(table slots) commit checks and support for dynamic (slot-less) reader
// handles.
func BravoOptions() Options {
	o := DefaultOptions()
	o.ReaderTracking = TrackBravo
	return o
}

// AutoSNZIOptions is the §5 self-tuning configuration: reader tracking
// switches between flags and SNZI based on measured reader durations.
func AutoSNZIOptions() Options {
	o := DefaultOptions()
	o.ReaderTracking = TrackAuto
	return o
}

// Lock is a SpRWL instance. Lock state lives in simulated memory carved
// from the arena passed to New, so the same implementation runs under the
// real runtime and the discrete-event simulator.
type Lock struct {
	e       env.Env
	opts    Options
	threads int
	est     *ema.Estimator
	pipe    *obs.Pipeline

	state      memmodel.Addr // per-thread word, packed 8/line
	clockW     memmodel.Addr // writers' predicted end times
	clockR     memmodel.Addr // readers' predicted end times
	waitingFor memmodel.Addr // reader → writer-slot+1 it waits for
	readerVer  memmodel.Addr // versioned-SGL: observed version+1

	gl        locks.SpinMutex
	glVer     memmodel.Addr
	z         *snzi.SNZI
	trackMode memmodel.Addr // adaptive reader-tracking mode word
	adapt     adaptState

	// parker is the environment's sleep/wake primitive (nil = spin-only,
	// the simulator's default); wakes is the nil-safe wake endpoint the
	// writer-retire paths call after their phase stores.
	parker park.Parker
	wakes  park.Hub

	// The three reader-indicator backends (package readers). indFlags
	// wraps the state array and indSNZI wraps z, so the simulated
	// memory traffic of the classic configurations is unchanged;
	// indBravo is allocated only under TrackBravo and TrackAuto.
	indFlags readers.Flags
	indSNZI  readers.SNZI
	indBravo *readers.Bravo

	// dynReaders counts dynamic (slot-less) handles ever created; while
	// nonzero the self-tuning controller must not select the flag
	// array, which cannot represent them.
	dynReaders atomic.Int64
}

var _ rwlock.Lock = (*Lock)(nil)

// Words returns the simulated-memory footprint of a Lock for the given
// thread count, in words, for every configuration without a BRAVO table.
// Use WordsFor when Options may select one.
func Words(threads int) int {
	arrays := 5 * lineAlignedWords(threads)
	glWords := 3 * memmodel.LineWords // fallback lock, its version, mode word
	return arrays + glWords + snzi.Words(threads)
}

// WordsFor returns the simulated-memory footprint of a Lock built with the
// given options.
func WordsFor(threads int, opts Options) int {
	w := Words(threads)
	switch opts.ReaderTracking {
	case TrackBravo, TrackAuto:
		w += readers.BravoWords(bravoSlotCount(opts))
	}
	return w
}

// bravoSlotCount resolves the BRAVO table size for opts.
func bravoSlotCount(opts Options) int {
	if opts.BravoSlots > 0 {
		return readers.ClampBravoSlots(opts.BravoSlots)
	}
	return readers.DefaultBravoSlots()
}

func lineAlignedWords(n int) int {
	return (n + memmodel.LineWords - 1) / memmodel.LineWords * memmodel.LineWords
}

// New builds a SpRWL over e for the given thread count, carving its state
// out of ar. numCS is the number of distinct critical-section IDs the
// duration estimator tracks (§3.2.1). pipe is the observability pipeline
// every scheduling decision and outcome is reported through; nil disables
// instrumentation entirely.
func New(e env.Env, ar *memmodel.Arena, threads, numCS int, opts Options, pipe *obs.Pipeline) (*Lock, error) {
	if threads < 1 {
		return nil, errors.New("core: threads must be positive")
	}
	if threads > e.Threads() {
		return nil, fmt.Errorf("core: %d threads exceed environment capacity %d", threads, e.Threads())
	}
	if opts.ReaderTracking < TrackFlags || opts.ReaderTracking > TrackAuto {
		return nil, fmt.Errorf("core: unknown reader tracking %d", opts.ReaderTracking)
	}
	if opts.MaxRetries < 1 {
		opts.MaxRetries = 1
	}
	l := &Lock{
		e:          e,
		opts:       opts,
		threads:    threads,
		est:        ema.NewEstimator(numCS, 0),
		pipe:       pipe,
		state:      ar.AllocWords(threads),
		clockW:     ar.AllocWords(threads),
		clockR:     ar.AllocWords(threads),
		waitingFor: ar.AllocWords(threads),
		readerVer:  ar.AllocWords(threads),
	}
	if opts.AutoSNZIThreshold == 0 {
		l.opts.AutoSNZIThreshold = DefaultAutoSNZIThreshold
	}
	l.parker = park.FromEnv(e)
	l.wakes = park.NewHub(l.parker)
	l.gl = locks.NewSpinMutex(e, ar.AllocLines(1))
	l.glVer = ar.AllocLines(1)
	l.trackMode = ar.AllocLines(1)
	l.z = snzi.New(e, ar.AllocWords(snzi.Words(threads)), threads)
	// Indicator backends. Flags and SNZI wrap state the lock already
	// owns — same words, same access sequences as the classic layout;
	// the BRAVO table is extra state, allocated after everything else so
	// configurations without it keep their exact arena layout.
	l.indFlags = readers.NewFlags(e, l.state, threads)
	l.indSNZI = readers.NewSNZI(l.z)
	switch l.opts.ReaderTracking {
	case TrackBravo, TrackAuto:
		slots := bravoSlotCount(l.opts)
		l.opts.BravoSlots = slots
		l.indBravo = readers.NewBravo(e, ar.AllocWords(readers.BravoWords(slots)), slots)
	}
	return l, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(e env.Env, ar *memmodel.Arena, threads, numCS int, opts Options, pipe *obs.Pipeline) *Lock {
	l, err := New(e, ar, threads, numCS, opts, pipe)
	if err != nil {
		panic(err)
	}
	return l
}

// Name implements rwlock.Lock.
func (l *Lock) Name() string {
	switch l.opts.ReaderTracking {
	case TrackAuto:
		return "SpRWL-Auto"
	case TrackBravo:
		return "SpRWL-Bravo"
	case TrackSNZI:
		return "SpRWL-SNZI"
	}
	switch {
	case !l.opts.ReaderSync && !l.opts.WriterSync:
		return "SpRWL-NoSched"
	case l.opts.ReaderSync && !l.opts.JoinWaiters && !l.opts.WriterSync:
		return "SpRWL-RWait"
	case l.opts.ReaderSync && !l.opts.WriterSync:
		return "SpRWL-RSync"
	default:
		return "SpRWL"
	}
}

// NewHandle implements rwlock.Lock.
func (l *Lock) NewHandle(slot int) rwlock.Handle {
	if slot < 0 || slot >= l.threads {
		panic(fmt.Sprintf("core: slot %d out of range [0,%d)", slot, l.threads))
	}
	h := &handle{l: l, slot: slot, hint: uint64(slot), ring: l.pipe.Thread(slot)}
	// The attempt closures are built once per handle and reused by every
	// hardware attempt: passing a fresh closure through the env.Env.Attempt
	// interface would make it escape and allocate on every retry of every
	// critical section. The current body travels through h.txBody, which is
	// owned by the handle's thread.
	glAddr := l.gl.Addr()
	h.txRead = func(tx env.TxAccessor) {
		if tx.Load(glAddr) != 0 {
			tx.Abort(env.AbortExplicit)
		}
		h.txBody(tx)
	}
	h.txWrite = func(tx env.TxAccessor) {
		if tx.Load(glAddr) != 0 {
			tx.Abort(env.AbortExplicit)
		}
		h.txBody(tx)
		h.checkForReaders(tx)
	}
	return h
}

// dynSeed feeds goroutine-local slot hashing: every dynamic handle draws a
// distinct seed, mixed so consecutive handles probe unrelated BRAVO slots
// and SNZI leaves.
var dynSeed atomic.Uint64

// NewDynamicHandle returns a handle bound to no preassigned thread slot:
// any number of goroutines may hold one (one goroutine per handle at a
// time, as with NewHandle), beyond the lock's registered thread count.
//
// Dynamic reads take the uninstrumented path and publish through a
// dynamic-safe indicator — the BRAVO table or SNZI — using the handle's
// hash seed instead of a slot; dynamic writes always run on the global
// fallback lock, which needs no slot either. The per-slot scheduling
// refinements (HTM-first sections, clock advertisement, §3.3 wait
// registration, duration sampling) are skipped: they all key on a slot.
//
// Requires dynamic-safe reader tracking: TrackBravo, TrackSNZI or
// TrackAuto. Under TrackAuto the first dynamic handle permanently evicts
// flag-array tracking (the flag array cannot represent slot-less
// readers); the controller keeps self-tuning between BRAVO and SNZI.
func (l *Lock) NewDynamicHandle() (rwlock.Handle, error) {
	if l.opts.ReaderTracking == TrackFlags {
		return nil, errors.New("core: dynamic handles need dynamic-safe reader tracking (TrackBravo, TrackSNZI or TrackAuto)")
	}
	h := &handle{l: l, slot: -1, hint: readers.Mix64(dynSeed.Add(1))}
	if l.opts.ReaderTracking == TrackAuto {
		l.dynReaders.Add(1)
		// Evict flag-array tracking before this handle's first read,
		// under the transition lock so a controller switch in flight
		// completes first.
		l.adapt.mu.Lock()
		if cur := trackTarget(l.e.Load(l.trackMode)); cur == TrackFlags {
			h.switchTracking(TrackFlags, TrackBravo)
		}
		l.adapt.mu.Unlock()
	}
	return h, nil
}

// NewDynamicHandleObserved is NewDynamicHandle with an observability ring
// drawn from the lock's pipeline at ringSlot. Dynamic handles have no
// thread slot, so the pipeline must be built with extra ring slots for them
// (the oversubscription harness does: ring 0..threads-1 for static handles,
// ring threads+i for dynamic reader i); a ringSlot beyond the pipeline's
// size yields a nil ring, i.e. plain NewDynamicHandle behaviour. The usual
// ownership rule applies: a ring slot must be unique to one handle, used by
// one goroutine.
func (l *Lock) NewDynamicHandleObserved(ringSlot int) (rwlock.Handle, error) {
	h, err := l.NewDynamicHandle()
	if err != nil {
		return nil, err
	}
	h.(*handle).ring = l.pipe.Thread(ringSlot)
	return h, nil
}

// handle is one thread's endpoint; see rwlock.Handle for the usage
// contract. Dynamic handles carry slot == -1 and skip every slot-keyed
// path (HTM attempts, clock advertisement, wait registration, sampling).
type handle struct {
	l    *Lock
	slot int
	// hint seeds indicator slot selection: the thread slot for static
	// handles (the flag array requires it), a mixed per-handle seed for
	// dynamic ones.
	hint uint64
	// ring is this thread's observability event buffer (nil when no
	// pipeline is attached; all record methods are nil-safe).
	ring *obs.Ring
	// flaggedIn records which tracking structure this thread's active
	// reader flag lives in, and flagToken the backend's Arrive token, so
	// the unflag always retracts exactly what was published.
	flaggedIn ReaderTracking
	flagToken uint64

	// spanGLAt is the fallback-lock acquisition timestamp of the current
	// AcquireWrite span, consumed by ReleaseWrite's SGL event.
	spanGLAt uint64

	// txBody carries the critical-section body for the duration of one
	// Read/Write call; txRead and txWrite are the per-handle attempt
	// closures that subscribe to the fallback lock, run txBody, and (for
	// writers) perform the commit-time reader check. Caching them here
	// keeps the attempt loops allocation-free.
	txBody  rwlock.Body
	txRead  func(tx env.TxAccessor)
	txWrite func(tx env.TxAccessor)
}

func (l *Lock) stateAddr(i int) memmodel.Addr      { return l.state + memmodel.Addr(i) }
func (l *Lock) clockWAddr(i int) memmodel.Addr     { return l.clockW + memmodel.Addr(i) }
func (l *Lock) clockRAddr(i int) memmodel.Addr     { return l.clockR + memmodel.Addr(i) }
func (l *Lock) waitingForAddr(i int) memmodel.Addr { return l.waitingFor + memmodel.Addr(i) }
func (l *Lock) readerVerAddr(i int) memmodel.Addr  { return l.readerVer + memmodel.Addr(i) }

// sample records a critical-section duration on the designated sampling
// thread only (§3.2.1).
func (l *Lock) sample(slot, csID int, cycles uint64) {
	if l.est.ShouldSample(slot) {
		l.est.Sample(csID, cycles)
	}
}
