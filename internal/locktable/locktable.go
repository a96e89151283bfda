// Package locktable implements a sharded SpRWL lock namespace: a
// power-of-two striped table of locks (package core) that one address space
// worth of data hashes into, the building block BRAVO's authors frame
// per-lock reader tables as (Dice & Kogan, PAPERS.md) and the layer the
// serving milestone of the ROADMAP needs — millions of keys cannot share
// one lock's reader indicators, writer queue, and parking hub.
//
// Each shard is a complete, independent SpRWL lock: its own BRAVO reader
// table (sized from GOMAXPROCS by default), its own TrackAuto self-tuning
// controller, its own fallback lock and waiter wake hub. A key selects its
// shard by splitmix64 hash mixing (readers.Mix64) masked to the table size,
// so adjacent keys land on unrelated shards and a skewed key distribution
// still spreads across the table.
//
// # Single-key sections
//
// Handle.Read and Handle.Write map the key to its shard and run the full
// per-lock SpRWL machinery there — HTM-first sections, reader/writer
// scheduling, indicator tracking — allocation-free on top of the shard's
// own zero-alloc paths.
//
// # Multi-key spans (AcquireN)
//
// ReadN/WriteN execute one body while holding every shard covering the
// given keys, using the explicit two-phase primitives of core.SpanHandle.
// Deadlock freedom comes from sort-then-lock: the shard set is deduplicated
// into a per-handle membership bitmap and acquired in ascending shard-index
// order (the bitmap scan is a counting sort, so "sorted" is by
// construction, with no comparison sort on the hot path). Every waits-for
// edge then points from a lower-indexed resource to a strictly
// higher-indexed one — writers hold all their lower shards fully drained
// before touching the next index, and span readers flagged on shard s only
// ever wait on fallback locks of shards > s — so the waits-for graph cannot
// contain a cycle. The differential stress suite proves the invariant under
// the race detector; the reversed-order acquisition test would deadlock
// without the ordering.
//
// Degenerate spans collapse onto cheaper paths: an empty key set runs the
// body directly (there is nothing to protect), and a span whose keys all
// map to one shard — including duplicate keys — delegates to that shard's
// full single-key path, HTM attempts included.
package locktable

import (
	"fmt"
	"runtime"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/readers"
	"sprwl/internal/rwlock"
)

// MaxShards bounds the table size; 4096 shards of lock state stay well
// inside any realistic simulated address space while covering every core
// count this repository targets.
const MaxShards = 4096

// Config sizes a Table.
type Config struct {
	// Shards is the stripe count, rounded up to a power of two in
	// [1, MaxShards]; 0 derives it from GOMAXPROCS (4× procs, at least
	// 8) — enough stripes that independent workers rarely collide.
	Shards int

	// Threads is the number of static worker slots per shard (every
	// worker gets one slot, valid across all shards).
	Threads int

	// NumCS is how many distinct critical-section IDs each shard's
	// duration estimator tracks; 0 defaults to 16.
	NumCS int

	// Opts selects each shard's SpRWL variant. The zero value is
	// upgraded to core.AutoSNZIOptions(): per-shard self-tuning between
	// the flag array, the GOMAXPROCS-sized BRAVO table, and SNZI.
	Opts core.Options
}

// normalize fills defaults and rounds the shard count.
func (c *Config) normalize() {
	if c.Shards <= 0 {
		c.Shards = 4 * runtime.GOMAXPROCS(0)
		if c.Shards < 8 {
			c.Shards = 8
		}
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	c.Shards = ceilPow2(c.Shards)
	if c.NumCS <= 0 {
		c.NumCS = 16
	}
	if (c.Opts == core.Options{}) {
		c.Opts = core.AutoSNZIOptions()
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards returns the stripe count a table built with cfg will have
// (defaults filled, rounded to a power of two).
func NumShards(cfg Config) int {
	cfg.normalize()
	return cfg.Shards
}

// Words returns the simulated-memory footprint of a table built with cfg,
// in words.
func Words(cfg Config) int {
	cfg.normalize()
	return cfg.Shards * core.WordsFor(cfg.Threads, cfg.Opts)
}

// Table is a sharded SpRWL lock namespace.
type Table struct {
	e      env.Env
	pipe   *obs.Pipeline
	shards []*core.Lock
	mask   uint64
}

// New builds a table over e, carving every shard's lock state out of ar.
// pipe is shared by all shards: events of worker slot s land in ring s
// regardless of which shard emitted them (one goroutine owns slot s across
// the whole table, so the ring ownership contract holds).
func New(e env.Env, ar *memmodel.Arena, cfg Config, pipe *obs.Pipeline) (*Table, error) {
	cfg.normalize()
	t := &Table{
		e:      e,
		pipe:   pipe,
		shards: make([]*core.Lock, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
	}
	for i := range t.shards {
		l, err := core.New(e, ar, cfg.Threads, cfg.NumCS, cfg.Opts, pipe)
		if err != nil {
			return nil, fmt.Errorf("locktable: shard %d: %w", i, err)
		}
		t.shards[i] = l
	}
	return t, nil
}

// Shards returns the stripe count (a power of two).
func (t *Table) Shards() int { return len(t.shards) }

// Shard returns stripe i's lock: a complete SpRWL instance, usable exactly
// like a standalone one (examples/rangescan runs unchanged on it).
func (t *Table) Shard(i int) *core.Lock { return t.shards[i] }

// Name labels the table for reports.
func (t *Table) Name() string {
	return fmt.Sprintf("Table-%d/%s", len(t.shards), t.shards[0].Name())
}

// ShardIndex maps a key to its stripe: splitmix64-mixed, masked to the
// table size.
//
//sprwl:hotpath
func (t *Table) ShardIndex(key uint64) int {
	return int(readers.Mix64(key) & t.mask)
}

// NewHandle returns the table endpoint for worker slot. A Handle must only
// be used by one goroutine, and a slot must not be shared between handles.
func (t *Table) NewHandle(slot int) *Handle {
	h := &Handle{
		t:     t,
		spans: make([]core.SpanHandle, len(t.shards)),
		order: make([]int32, 0, len(t.shards)),
		mark:  make([]bool, len(t.shards)),
		ring:  t.pipe.Thread(slot),
	}
	for i, l := range t.shards {
		h.spans[i] = l.NewHandle(slot).(core.SpanHandle)
	}
	return h
}

// Handle is one worker's endpoint to every shard of the table.
type Handle struct {
	t *Table
	// spans holds this slot's per-shard handles; single-key sections use
	// their closure API, multi-key spans their two-phase API.
	spans []core.SpanHandle
	// order and mark are the span scratch state, reused across spans so
	// AcquireN stays allocation-free: mark is the shard membership
	// bitmap, order the insertion-ordered shard list used to clear it.
	order []int32
	mark  []bool
	// ring is this slot's observability buffer (nil-safe); spans record
	// exactly one section event here, single-key paths record through
	// the shard's own machinery.
	ring *obs.Ring
}

// Read executes body as a read-only critical section under key's shard,
// with the shard's full single-lock read path (HTM-first, scheduling,
// indicator tracking).
//
//sprwl:hotpath
func (h *Handle) Read(key uint64, csID int, body rwlock.Body) {
	h.spans[h.t.ShardIndex(key)].Read(csID, body)
}

// Write executes body as an updating critical section under key's shard.
//
//sprwl:hotpath
func (h *Handle) Write(key uint64, csID int, body rwlock.Body) {
	h.spans[h.t.ShardIndex(key)].Write(csID, body)
}

// collect deduplicates keys into the shard membership bitmap and returns
// the span width. Callers must pair it with clear().
func (h *Handle) collect(keys []uint64) int {
	h.order = h.order[:0]
	for _, k := range keys {
		if s := h.t.ShardIndex(k); !h.mark[s] {
			h.mark[s] = true
			h.order = append(h.order, int32(s))
		}
	}
	return len(h.order)
}

// clear resets the membership bitmap.
func (h *Handle) clear() {
	for _, s := range h.order {
		h.mark[s] = false
	}
	h.order = h.order[:0]
}

// ReadN executes body while holding every shard covering keys as an
// uninstrumented reader: the body sees a state no writer was mid-section in
// on any covered shard. Keys may repeat; an empty set runs the body with no
// locks held (an empty span protects nothing); a single-shard set delegates
// to the shard's full single-key read path.
//
//sprwl:hotpath
func (h *Handle) ReadN(keys []uint64, csID int, body rwlock.Body) {
	switch h.collect(keys) {
	case 0:
		h.clear()
		body(h.t.e)
		return
	case 1:
		s := h.order[0]
		h.clear()
		h.spans[s].Read(csID, body)
		return
	}
	start := h.t.e.Now()
	h.acquireMarked(csID, false)
	body(h.t.e)
	h.releaseMarked(csID, false)
	h.clear()
	h.ring.Section(obs.Reader, csID, env.ModeUninstrumented, start, h.t.e.Now())
}

// WriteN executes body while holding every shard covering keys exclusively
// (fallback lock taken, readers drained, in ascending shard order). The
// body runs exactly once, with direct accesses — unlike single-key writes
// it is never transactionally retried.
//
//sprwl:hotpath
func (h *Handle) WriteN(keys []uint64, csID int, body rwlock.Body) {
	switch h.collect(keys) {
	case 0:
		h.clear()
		body(h.t.e)
		return
	case 1:
		s := h.order[0]
		h.clear()
		h.spans[s].Write(csID, body)
		return
	}
	start := h.t.e.Now()
	h.acquireMarked(csID, true)
	body(h.t.e)
	h.releaseMarked(csID, true)
	h.clear()
	h.ring.Section(obs.Writer, csID, env.ModeGL, start, h.t.e.Now())
}

// ReadAll executes body while holding every shard of the table as a
// reader — the scatter-gather span a full range scan over a hash-sharded
// namespace needs.
//
//sprwl:hotpath
func (h *Handle) ReadAll(csID int, body rwlock.Body) {
	start := h.t.e.Now()
	for i := 0; i < len(h.spans); i++ {
		h.spans[i].AcquireRead(csID)
	}
	body(h.t.e)
	for i := len(h.spans) - 1; i >= 0; i-- {
		h.spans[i].ReleaseRead(csID)
	}
	h.ring.Section(obs.Reader, csID, env.ModeUninstrumented, start, h.t.e.Now())
}

// acquireMarked acquires every marked shard in ascending index order — the
// sort-then-lock step. The bitmap scan visits indices in increasing order
// by construction, which is the whole deadlock-freedom argument (see the
// package comment).
//
//sprwl:hotpath
func (h *Handle) acquireMarked(csID int, write bool) {
	remaining := len(h.order)
	for s := 0; s < len(h.mark) && remaining > 0; s++ {
		if !h.mark[s] {
			continue
		}
		remaining--
		if write {
			h.spans[s].AcquireWrite(csID)
		} else {
			h.spans[s].AcquireRead(csID)
		}
	}
}

// releaseMarked releases every marked shard in descending index order.
//
//sprwl:hotpath
func (h *Handle) releaseMarked(csID int, write bool) {
	remaining := len(h.order)
	for s := len(h.mark) - 1; s >= 0 && remaining > 0; s-- {
		if !h.mark[s] {
			continue
		}
		remaining--
		if write {
			h.spans[s].ReleaseWrite(csID)
		} else {
			h.spans[s].ReleaseRead(csID)
		}
	}
}
