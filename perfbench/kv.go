package main

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"sprwl/internal/htm"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
	"sprwl/internal/workload"
)

// KV workload parameters, shared by kv-point and kv-mixed.
const (
	kvShards     = 8 // pinned: the default derives from GOMAXPROCS
	kvItems      = 262_144
	kvScanSpan   = 128
	kvMultiWidth = 4
	kvGetPct     = 90 // of point ops; the rest split evenly Put/Delete
)

// Value encoding. Every value the store holds encodes the key it belongs to
// or names the MultiPut that wrote it, so a Get of any key is checkable:
//
//	populate: key
//	Put:      seq<<25 | owner<<24 | key      (seq >= 1)
//	MultiPut: 1<<63 | owner<<56 | seq         (seq >= 1)
const (
	keyBits    = 24
	keyMask    = 1<<keyBits - 1
	multiFlag  = uint64(1) << 63
	multiShift = 56
	multiSeq   = 1<<multiShift - 1
	absent     = ^uint64(0) // oracle marker for a deleted key
)

func putValue(owner int, seq, key uint64) uint64 {
	return seq<<(keyBits+1) | uint64(owner)<<keyBits | key
}

func multiValue(owner int, seq uint64) uint64 {
	return multiFlag | uint64(owner)<<multiShift | seq
}

// atomicCounter is a monotonic counter on its own cache line.
type atomicCounter struct {
	v atomic.Uint64
	_ [56]byte
}

// add increments the counter and returns the new value.
func (c *atomicCounter) add() uint64  { return c.v.Add(1) }
func (c *atomicCounter) load() uint64 { return c.v.Load() }

// kvMix is one KV workload's op mix.
type kvMix struct {
	zipf     float64 // key skew theta; 0 is uniform
	scanPct  int     // whole-table range scans, percent of all ops
	multiPct int     // 4-key MultiPut spans, percent of all ops
}

// kvStore is a populated store plus the oracle the workers keep of it.
// Keys are owned by worker key&1: only the owner puts, deletes or
// multi-puts a key, so the owner's view of it is exact, while any worker
// may read it.
type kvStore struct {
	kv  *workload.KV
	mix kvMix

	// oracle[k] is key k's expected value, or absent; written only by
	// k's owner.
	oracle []uint64
	// issued counts each worker's Puts and MultiPuts. A reader checks
	// the other worker's stamps against it, so a count is published
	// before the call that may write its stamp.
	issued [numWorkers]struct {
		put, multi atomicCounter
	}
}

func setupKV(mix kvMix, l *layers) (*kvStore, error) {
	cfg := workload.KVConfig{
		Table: locktable.Config{Shards: kvShards, Threads: numWorkers},
		Items: kvItems,
	}
	space, err := htm.NewSpace(htm.Config{Threads: numWorkers, Words: workload.KVWords(cfg)})
	if err != nil {
		return nil, err
	}
	rt := htm.NewRuntime(space, nil)
	e, pipe := l.wrap(rt)
	kv, err := workload.SetupKV(e, memmodel.NewArena(0, space.Size()), cfg, pipe)
	if err != nil {
		return nil, err
	}
	s := &kvStore{kv: kv, mix: mix, oracle: make([]uint64, kvItems)}
	for k := range s.oracle {
		s.oracle[k] = uint64(k)
	}
	return s, nil
}

var _ store = (*kvStore)(nil)

func (s *kvStore) newWorker(w int, seed uint64) worker {
	return &kvWorker{
		s:     s,
		w:     w,
		c:     s.kv.NewClient(w),
		rng:   rand.New(rand.NewPCG(seed, 0x5eed+uint64(w))),
		zipf:  workload.NewZipf(kvItems, s.mix.zipf, seed*1009+uint64(w)),
		mkeys: make([]uint64, kvMultiWidth),
	}
}

// kvWorker draws, issues and checks one worker's ops.
type kvWorker struct {
	s     *kvStore
	w     int
	c     *workload.Client
	rng   *rand.Rand
	zipf  *workload.Zipf
	mkeys []uint64

	op       opClass
	del      bool
	key, val uint64
	lo       uint64
	// results
	gotVal   uint64
	gotOK    bool
	gotCount int
}

func (k *kvWorker) ownKey(key uint64) uint64 { return key&^1 | uint64(k.w) }

func (k *kvWorker) next() opClass {
	s := k.s
	switch p := k.rng.IntN(100); {
	case p < s.mix.scanPct:
		k.op, k.lo = classScan, k.zipf.Next()
	case p < s.mix.scanPct+s.mix.multiPct:
		k.op = classMulti
		for i := range k.mkeys {
			k.mkeys[i] = k.ownKey(k.zipf.Next())
		}
		k.val = multiValue(k.w, s.issued[k.w].multi.add())
	case k.rng.IntN(100) < kvGetPct:
		k.op, k.key = classRead, k.zipf.Next()
	default:
		k.op, k.key = classWrite, k.ownKey(k.zipf.Next())
		k.del = k.rng.IntN(2) == 0
		if !k.del {
			k.val = putValue(k.w, s.issued[k.w].put.add(), k.key)
		}
	}
	return k.op
}

func (k *kvWorker) call() {
	switch k.op {
	case classRead:
		k.gotVal, k.gotOK = k.c.Get(k.key)
	case classWrite:
		if k.del {
			k.gotOK = k.c.Delete(k.key)
		} else {
			k.gotOK = k.c.Put(k.key, k.val)
		}
	case classScan:
		k.gotCount, _ = k.c.Scan(k.lo, kvScanSpan)
	case classMulti:
		k.gotCount = k.c.MultiPut(k.mkeys, k.val)
	}
}

func (k *kvWorker) check() error {
	s := k.s
	switch k.op {
	case classRead:
		return s.checkGet(k.w, k.key, k.gotVal, k.gotOK)
	case classWrite:
		present := s.oracle[k.key] != absent
		if k.del {
			if k.gotOK != present {
				return fmt.Errorf("Delete(%d) reported present=%v, oracle %v", k.key, k.gotOK, present)
			}
			s.oracle[k.key] = absent
			return nil
		}
		if k.gotOK == present {
			return fmt.Errorf("Put(%d) reported inserted=%v, oracle present=%v", k.key, k.gotOK, present)
		}
		s.oracle[k.key] = k.val
	case classScan:
		return s.checkScan(k.w, k.lo, k.gotCount)
	case classMulti:
		want := 0
		for _, key := range k.mkeys {
			if s.oracle[key] != absent {
				want++
				s.oracle[key] = k.val
			}
		}
		if k.gotCount != want {
			return fmt.Errorf("MultiPut(%v) applied %d updates, oracle %d", k.mkeys, k.gotCount, want)
		}
	}
	return nil
}

// checkGet checks a Get of key by worker w. The owner's view is exact; any
// other reader checks that the value encodes key, or a stamp its owner has
// issued.
func (s *kvStore) checkGet(w int, key, v uint64, ok bool) error {
	owner := int(key & 1)
	if owner == w {
		want := s.oracle[key]
		if ok != (want != absent) || (ok && v != want) {
			return fmt.Errorf("Get(%d) = %#x,%v; owner oracle %#x", key, v, ok, want)
		}
		return nil
	}
	if !ok {
		return nil
	}
	if v&multiFlag != 0 {
		seq := v & multiSeq
		if int(v>>multiShift&0x7f) != owner || seq == 0 || seq > s.issued[owner].multi.load() {
			return fmt.Errorf("Get(%d) = %#x: not a MultiPut stamp of owner %d", key, v, owner)
		}
		return nil
	}
	if v&keyMask != key {
		return fmt.Errorf("Get(%d) = %#x encodes key %d", key, v, v&keyMask)
	}
	if seq := v >> (keyBits + 1); seq != 0 && (int(v>>keyBits&1) != owner || seq > s.issued[owner].put.load()) {
		return fmt.Errorf("Get(%d) = %#x: not a Put of owner %d", key, v, owner)
	}
	return nil
}

// checkScan bounds a scan's key count: every present key of the scanning
// worker's own in [lo, lo+span) must be seen, and at most every key of the
// other worker's besides.
func (s *kvStore) checkScan(w int, lo uint64, got int) error {
	own, other := 0, 0
	for key := lo; key < lo+kvScanSpan && key < kvItems; key++ {
		switch {
		case int(key&1) != w:
			other++
		case s.oracle[key] != absent:
			own++
		}
	}
	if got < own || got > own+other {
		return fmt.Errorf("Scan(%d,%d) counted %d keys, oracle allows [%d,%d]", lo, kvScanSpan, got, own, own+other)
	}
	return nil
}

// sweep checks every key against its owner's oracle, single-threaded, after
// the workers have joined.
func (s *kvStore) sweep(ws []worker) (checked, failed uint64, first error) {
	c := ws[0].(*kvWorker).c
	for key := uint64(0); key < kvItems; key++ {
		v, ok := c.Get(key)
		want := s.oracle[key]
		checked++
		if ok != (want != absent) || (ok && v != want) {
			failed++
			if first == nil {
				first = fmt.Errorf("sweep: Get(%d) = %#x,%v; oracle %#x", key, v, ok, want)
			}
		}
	}
	return checked, failed, first
}
