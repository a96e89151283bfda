// Package sprwl is a Go reproduction of SpRWL — the Speculative Read-Write
// Lock of Issa, Romano and Lopes (Middleware '18) — together with the
// hardware-transactional-memory emulation it runs on and every baseline the
// paper evaluates.
//
// A SpRWL lock protects data living in a simulated word-addressable address
// space. Writers execute as best-effort (emulated) hardware transactions
// with a global-lock fallback; readers execute uninstrumented and are
// therefore immune to transactional capacity limits — the paper's key idea.
// Critical sections are closures over an Accessor:
//
//	l, _ := sprwl.New(sprwl.Config{Threads: 4, Words: 1 << 16})
//	data := l.Arena().AllocLines(1)
//	h := l.Handle(0) // one handle per worker goroutine
//	h.Write(0, func(m sprwl.Accessor) { m.Store(data, 42) })
//	h.Read(1, func(m sprwl.Accessor) { _ = m.Load(data) })
//
// Because transactional bodies re-execute on abort, a body must be
// idempotent apart from its Accessor stores: draw inputs before entering
// and write results only through the accessor.
//
// The full design — emulation semantics, scheduling heuristics, baselines,
// and the per-figure benchmark harness — is documented in DESIGN.md.
package sprwl

import (
	"fmt"

	"sprwl/internal/core"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
	"sprwl/internal/stats"
)

// Public aliases for the shared-memory vocabulary, so downstream code can
// name every type the API exchanges.
type (
	// Addr indexes a 64-bit word of a lock's simulated address space.
	Addr = memmodel.Addr
	// Accessor is the data-plane view a critical-section body receives.
	Accessor = memmodel.Accessor
	// Arena hands out line-aligned regions of the address space.
	Arena = memmodel.Arena
	// Options selects SpRWL's scheduling schemes and optimizations
	// (§3.2–§3.4 of the paper); see DefaultOptions.
	Options = core.Options
	// ReaderTracking selects the structure readers publish themselves
	// in (Options.ReaderTracking).
	ReaderTracking = core.ReaderTracking
	// Snapshot is a merged statistics view (commit modes, abort causes,
	// latencies).
	Snapshot = stats.Snapshot
	// Profile describes an emulated machine (capacities, SMT topology).
	Profile = htm.Profile
)

// Reader-tracking structures: the per-thread flag array (the zero value),
// SNZI, the BRAVO visible-readers table, and runtime self-tuning among the
// three.
const (
	TrackFlags = core.TrackFlags
	TrackSNZI  = core.TrackSNZI
	TrackBravo = core.TrackBravo
	TrackAuto  = core.TrackAuto
)

// Re-exported option presets (the paper's named variants).
var (
	DefaultOptions  = core.DefaultOptions
	NoSchedOptions  = core.NoSchedOptions
	RWaitOptions    = core.RWaitOptions
	RSyncOptions    = core.RSyncOptions
	SNZIOptions     = core.SNZIOptions
	BravoOptions    = core.BravoOptions
	AutoSNZIOptions = core.AutoSNZIOptions

	// Broadwell and Power8 are the paper's two evaluation machines.
	Broadwell = htm.Broadwell
	Power8    = htm.Power8
)

// Config sizes a Lock and its address space.
type Config struct {
	// Threads is the number of worker slots (1..64). Each concurrent
	// worker goroutine needs its own slot and Handle.
	Threads int

	// Words is the simulated address-space size in 64-bit words. It
	// must cover the lock's own state (see MinWords) plus whatever the
	// application allocates from Arena.
	Words int

	// NumCS is how many distinct critical-section IDs the duration
	// estimator tracks; 0 defaults to 16.
	NumCS int

	// Machine selects the emulated HTM's capacity profile. The zero
	// value means "unlimited capacity"; use Broadwell() or Power8() for
	// the paper's machines.
	Machine Profile

	// Options selects the algorithm variant; the zero value is upgraded
	// to DefaultOptions (full SpRWL).
	Options Options
}

// MinWords returns the address-space words the lock itself needs for a
// given thread count under the default options; Config.Words must be at
// least this plus application data. Configurations with a BRAVO table
// (BravoOptions, AutoSNZIOptions) need MinWordsFor.
func MinWords(threads int) int { return core.Words(threads) + 2*memmodel.LineWords }

// MinWordsFor is MinWords for an explicit option set, accounting for the
// BRAVO visible-readers table when the options call for one.
func MinWordsFor(threads int, opts Options) int {
	return core.WordsFor(threads, opts) + 2*memmodel.LineWords
}

// Lock is a SpRWL instance bound to its own simulated address space.
type Lock struct {
	space *htm.Space
	rt    *htm.Runtime
	arena *memmodel.Arena
	col   *stats.Collector
	lock  *core.Lock
	cfg   Config
}

// New builds a lock and its address space.
func New(cfg Config) (*Lock, error) {
	if cfg.NumCS <= 0 {
		cfg.NumCS = 16
	}
	if (cfg.Options == Options{}) {
		cfg.Options = DefaultOptions()
	}
	if min := MinWordsFor(cfg.Threads, cfg.Options); cfg.Words < min {
		return nil, fmt.Errorf("sprwl: Words = %d is below MinWordsFor(%d) = %d", cfg.Words, cfg.Threads, min)
	}
	rCap, wCap := 0, 0
	if cfg.Machine.Name != "" {
		rCap, wCap = cfg.Machine.EffectiveCapacity(cfg.Threads)
	}
	space, err := htm.NewSpace(htm.Config{
		Threads:            cfg.Threads,
		Words:              cfg.Words,
		ReadCapacityLines:  rCap,
		WriteCapacityLines: wCap,
	})
	if err != nil {
		return nil, fmt.Errorf("sprwl: %w", err)
	}
	rt := htm.NewRuntime(space, nil)
	arena := memmodel.NewArena(0, space.Size())
	col := stats.NewCollector(cfg.Threads)
	l, err := core.New(rt, arena, cfg.Threads, cfg.NumCS, cfg.Options, col.Pipeline())
	if err != nil {
		return nil, fmt.Errorf("sprwl: %w", err)
	}
	return &Lock{space: space, rt: rt, arena: arena, col: col, lock: l, cfg: cfg}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Lock {
	l, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Arena returns the allocator for the lock's address space. Carve
// application data out of it before (or between) critical sections.
func (l *Lock) Arena() *Arena { return l.arena }

// Provision returns a direct, uninstrumented view of the address space for
// populating data structures before concurrent work starts.
func (l *Lock) Provision() memmodel.Space { return l.space }

// Handle returns the critical-section endpoint for a worker slot. A Handle
// must only be used by one goroutine at a time.
func (l *Lock) Handle(slot int) Handle {
	return Handle{h: l.lock.NewHandle(slot)}
}

// DynamicHandle returns an endpoint for a worker that has no preassigned
// slot — goroutines may come and go beyond Config.Threads. Dynamic readers
// register through a slot-free indicator (BRAVO or SNZI), so
// Options.ReaderTracking must be TrackBravo, TrackSNZI or TrackAuto.
// Dynamic writers always take the pessimistic fallback path.
func (l *Lock) DynamicHandle() (Handle, error) {
	h, err := l.lock.NewDynamicHandle()
	if err != nil {
		return Handle{}, fmt.Errorf("sprwl: %w", err)
	}
	return Handle{h: h}, nil
}

// Stats returns a merged snapshot of commit modes, abort causes and
// latencies recorded so far.
func (l *Lock) Stats() Snapshot { return l.col.Snapshot() }

// Name reports the configured algorithm variant.
func (l *Lock) Name() string { return l.lock.Name() }

// Handle is one worker's endpoint to the lock.
type Handle struct {
	h rwlock.Handle
}

// Read executes body as a read-only critical section. csID identifies the
// static critical section for the paper's duration-estimation heuristics;
// use a distinct small integer per call site.
func (h Handle) Read(csID int, body func(Accessor)) {
	// Accessor aliases memmodel.Accessor, so body converts without a
	// wrapper closure (which would allocate per section).
	h.h.Read(csID, body)
}

// Write executes body as an updating critical section. The body may run
// several times (transactional retry): it must be idempotent apart from its
// Accessor stores.
func (h Handle) Write(csID int, body func(Accessor)) {
	h.h.Write(csID, body)
}
