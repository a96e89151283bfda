// Package stress is a randomized differential stress suite: every SpRWL
// reader-backend × scheduling combination — and sync.RWMutex as the
// known-good reference implementation — executes the same seeded random
// workload, and the final shared state is compared against a sequential
// oracle that replays the identical operation streams single-threaded.
//
// The workload is designed so the oracle is schedule-independent: writers
// apply commutative per-key increments (final value = sum of planned
// deltas, whatever the interleaving), and every write keeps a mirror word
// in lockstep inside the same critical section, so readers can check
// atomicity (data[k] == mirror[k]) on every operation. Values are
// extracted inside the body and asserted outside, because transactional
// bodies may re-execute.
//
// Short mode (-short, the CI race job) runs a small fixed seed set;
// without -short (nightly) the suite widens the seed set and op counts.
package stress

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/hostile"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
)

const (
	stressThreads = 4 // static worker slots
	stressDynamic = 3 // extra dynamic-handle workers (dynamic-safe configs)
	stressKeys    = 8
)

// op is one planned operation. Plans are generated deterministically from
// the seed before workers start, so the same stream drives both the lock
// under test and the sequential oracle.
type op struct {
	write bool
	key   int
	delta uint64
}

func plan(seed int64, worker, nops int) []op {
	rng := rand.New(rand.NewSource(seed*1009 + int64(worker)))
	ops := make([]op, nops)
	for i := range ops {
		ops[i] = op{
			write: rng.Intn(100) < 30,
			key:   rng.Intn(stressKeys),
			delta: uint64(rng.Intn(16) + 1),
		}
	}
	return ops
}

// variant names one lock configuration under test.
type variant struct {
	name    string
	opts    core.Options
	dynamic bool // backend supports dynamic handles
}

// variants is the reader-backend × scheduling matrix: every backend runs
// under every named scheduling scheme the paper evaluates.
func variants() []variant {
	backends := []struct {
		name    string
		apply   func(*core.Options)
		dynamic bool
	}{
		{"flags", func(*core.Options) {}, false},
		{"snzi", func(o *core.Options) { o.ReaderTracking = core.TrackSNZI }, true},
		{"bravo", func(o *core.Options) { o.ReaderTracking = core.TrackBravo; o.BravoSlots = 4 }, true},
		{"auto", func(o *core.Options) { o.ReaderTracking = core.TrackAuto; o.AutoSNZIThreshold = 4096 }, true},
	}
	scheds := []struct {
		name string
		base func() core.Options
	}{
		{"nosched", core.NoSchedOptions},
		{"rwait", core.RWaitOptions},
		{"rsync", core.RSyncOptions},
		{"full", core.DefaultOptions},
	}
	var vs []variant
	for _, b := range backends {
		for _, s := range scheds {
			o := s.base()
			b.apply(&o)
			vs = append(vs, variant{name: b.name + "/" + s.name, opts: o, dynamic: b.dynamic})
		}
	}
	return vs
}

// layout carves the shared state: data[k] and its mirror, updated in
// lockstep inside every write section.
type layout struct {
	data   [stressKeys]memmodel.Addr
	mirror [stressKeys]memmodel.Addr
}

func carve(ar *memmodel.Arena) layout {
	var ly layout
	for k := 0; k < stressKeys; k++ {
		ly.data[k] = ar.AllocLines(1)
		ly.mirror[k] = ar.AllocLines(1)
	}
	return ly
}

// runWorker drives one handle through its planned stream.
func runWorker(t *testing.T, name string, h rwlock.Handle, ly layout, ops []op) {
	for _, o := range ops {
		if o.write {
			d, k := o.delta, o.key
			h.Write(0, func(acc memmodel.Accessor) {
				v := acc.Load(ly.data[k]) + d
				acc.Store(ly.data[k], v)
				acc.Store(ly.mirror[k], v)
			})
		} else {
			var vx, vy uint64
			k := o.key
			h.Read(1, func(acc memmodel.Accessor) {
				vx, vy = acc.Load(ly.data[k]), acc.Load(ly.mirror[k])
			})
			if vx != vy {
				t.Errorf("%s: torn read on key %d: data %d != mirror %d", name, k, vx, vy)
				return
			}
		}
	}
}

// oracle replays every planned stream sequentially and returns the
// expected final per-key values.
func oracle(plans [][]op) [stressKeys]uint64 {
	var want [stressKeys]uint64
	for _, ops := range plans {
		for _, o := range ops {
			if o.write {
				want[o.key] += o.delta
			}
		}
	}
	return want
}

// runStress executes one seeded round against a lock built by mk, which
// returns the lock, a direct view for the final comparison, and how many
// dynamic workers to add (0 if unsupported).
func runStress(t *testing.T, name string, seed int64, nops int,
	mk func() (rwlock.Lock, layout, func(memmodel.Addr) uint64, int)) {
	l, ly, load, dyn := mk()
	workers := stressThreads + dyn
	plans := make([][]op, workers)
	for w := range plans {
		plans[w] = plan(seed, w, nops)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		h := handleFor(t, l, w)
		wg.Add(1)
		go func(w int, h rwlock.Handle) {
			defer wg.Done()
			runWorker(t, name, h, ly, plans[w])
		}(w, h)
	}
	defer func() {
		if t.Failed() {
			t.Logf("replay: go test ./internal/stress/ -run '%s' -stress.seed=%d", t.Name(), seed)
		}
	}()
	wg.Wait()
	want := oracle(plans)
	for k := 0; k < stressKeys; k++ {
		if got := load(ly.data[k]); got != want[k] {
			t.Errorf("%s seed %d: key %d = %d, oracle says %d", name, seed, k, got, want[k])
		}
		if got := load(ly.mirror[k]); got != want[k] {
			t.Errorf("%s seed %d: mirror %d = %d, oracle says %d", name, seed, k, got, want[k])
		}
	}
}

// handleFor hands out a static handle for the first stressThreads workers
// and dynamic handles beyond that (the lock is a dynamicCapable core lock
// in that case).
func handleFor(t *testing.T, l rwlock.Lock, w int) rwlock.Handle {
	if w < stressThreads {
		return l.NewHandle(w)
	}
	cl := l.(interface {
		NewDynamicHandle() (rwlock.Handle, error)
	})
	h, err := cl.NewDynamicHandle()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// coreLock builds a SpRWL variant over a fresh space.
func coreLock(t *testing.T, opts core.Options, dyn int) (rwlock.Lock, layout, func(memmodel.Addr) uint64, int) {
	space, err := htm.NewSpace(htm.Config{Threads: stressThreads, Words: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	l := core.MustNew(e, ar, stressThreads, 4, opts, nil)
	return l, carve(ar), e.Load, dyn
}

// goRWLock adapts sync.RWMutex to the rwlock contract: the reference
// implementation the SpRWL variants are differentially tested against.
// Bodies get the direct (atomic per-word) space view; the mutex provides
// the exclusion.
type goRWLock struct {
	mu sync.RWMutex
	e  env.Env
}

func (g *goRWLock) NewHandle(int) rwlock.Handle { return (*goRWHandle)(g) }
func (g *goRWLock) Name() string                { return "sync.RWMutex" }

type goRWHandle goRWLock

func (h *goRWHandle) Read(_ int, body rwlock.Body) {
	h.mu.RLock()
	body(h.e)
	h.mu.RUnlock()
}

func (h *goRWHandle) Write(_ int, body rwlock.Body) {
	h.mu.Lock()
	body(h.e)
	h.mu.Unlock()
}

func rwMutexLock(t *testing.T) (rwlock.Lock, layout, func(memmodel.Addr) uint64, int) {
	space, err := htm.NewSpace(htm.Config{Threads: stressThreads, Words: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	return &goRWLock{e: e}, carve(ar), e.Load, 0
}

// stressSeed pins the differential matrix to a single seed for failure
// replay: `-stress.seed=N` on the command line, or SPRWL_STRESS_SEED=N in
// the environment (for CI re-runs where editing flags is awkward). Every
// stress failure message names its seed, so a red run is reproduced by
// feeding that seed back here.
var stressSeed = flag.Int64("stress.seed", 0, "replay the stress matrix with only this seed")

// replaySeed resolves the flag/env override; 0 means the full seed set.
func replaySeed() int64 {
	if *stressSeed != 0 {
		return *stressSeed
	}
	if s := os.Getenv("SPRWL_STRESS_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// seedSet returns the deterministic seeds and per-worker op count for the
// current mode: a single pinned seed when replaying a failure, a small
// fixed set for CI (-short), a wider sweep for the nightly run.
func seedSet() ([]int64, int) {
	if testing.Short() {
		if s := replaySeed(); s != 0 {
			return []int64{s}, 1500
		}
		return []int64{1, 2}, 1500
	}
	if s := replaySeed(); s != 0 {
		return []int64{s}, 8000
	}
	return []int64{1, 2, 3, 5, 8, 13}, 8000
}

// TestStressDifferential is the matrix: every reader-backend × scheduling
// combination (with dynamic workers mixed in where the backend allows) and
// the sync.RWMutex reference, each against the sequential oracle.
func TestStressDifferential(t *testing.T) {
	// Leak check on the parent: its cleanup runs after every parallel
	// child, when a stranded parked goroutine is the only sprwl frame
	// left standing.
	hostile.LeakCheck(t)
	seeds, nops := seedSet()
	for _, v := range variants() {
		for _, seed := range seeds {
			v, seed := v, seed
			t.Run(fmt.Sprintf("%s/seed=%d", v.name, seed), func(t *testing.T) {
				t.Parallel()
				dyn := 0
				if v.dynamic {
					dyn = stressDynamic
				}
				runStress(t, v.name, seed, nops, func() (rwlock.Lock, layout, func(memmodel.Addr) uint64, int) {
					return coreLock(t, v.opts, dyn)
				})
			})
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("rwmutex/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runStress(t, "sync.RWMutex", seed, nops, func() (rwlock.Lock, layout, func(memmodel.Addr) uint64, int) {
				return rwMutexLock(t)
			})
		})
	}
}
