package main

import (
	"fmt"
	"math/rand/v2"

	"sprwl/internal/core"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
)

// lock-long parameters: one lock under the Broadwell profile (384-line
// read capacity), readers far beyond it.
const (
	llLines     = 4096 // region size in cache lines
	llReadLines = 512  // lines one read visits
	llReadPct   = 90
	llGroup     = 4 // words a write stamps alike; a line holds two groups
	llReadCS    = 0
	llWriteCS   = 1
	llNumCS     = 16 // sprwl.New's default
)

// A write stamps all four words of one group with owner<<48 | seq and sets
// the owner's counter word to seq, in the same section.
const llSeqBits = 48

// lockLong is one lock over a 4096-line region plus one counter line per
// worker.
type lockLong struct {
	lock     *core.Lock
	mem      memmodel.Space // direct view for the end-of-run sweep
	region   memmodel.Addr
	counters [numWorkers]memmodel.Addr
	// writes[w] counts worker w's completed writes; written by w only.
	writes [numWorkers]uint64
	l      *layers
}

// setupLockLong builds the lock as sprwl.New does for a Broadwell
// Config (capacity profile, default options, llNumCS estimator slots), but
// over the environment and stats pipeline that l hands out, so the traced
// and untraced runs build the same stack.
func setupLockLong(l *layers) (*lockLong, error) {
	rCap, wCap := htm.Broadwell().EffectiveCapacity(numWorkers)
	space, err := htm.NewSpace(htm.Config{
		Threads:            numWorkers,
		Words:              core.Words(numWorkers) + (llLines+numWorkers)*memmodel.LineWords,
		ReadCapacityLines:  rCap,
		WriteCapacityLines: wCap,
	})
	if err != nil {
		return nil, err
	}
	e, pipe := l.wrap(htm.NewRuntime(space, nil))
	ar := memmodel.NewArena(0, space.Size())
	lk, err := core.New(e, ar, numWorkers, llNumCS, core.DefaultOptions(), pipe)
	if err != nil {
		return nil, err
	}
	s := &lockLong{lock: lk, mem: space, l: l, region: ar.AllocLines(llLines)}
	for w := range s.counters {
		s.counters[w] = ar.AllocLines(1)
	}
	return s, nil
}

var _ store = (*lockLong)(nil)

func (s *lockLong) newWorker(w int, seed uint64) worker {
	k := &llWorker{s: s, w: w, h: s.lock.NewHandle(w), rng: rand.New(rand.NewPCG(seed, 0x10c+uint64(w)))}
	k.readBody = k.read
	k.writeBody = k.write
	return k
}

// llWorker issues one worker's reads and writes. Its bodies are the
// benchmark's own: they count their runs and, in the traced run, the time
// they spend outside hardware attempts.
type llWorker struct {
	s   *lockLong
	w   int
	h   rwlock.Handle
	rng *rand.Rand

	op    opClass
	first int           // read: first line
	half  memmodel.Addr // read: which group of each line
	group memmodel.Addr // write: group address
	seq   uint64        // write: this write's sequence number

	// Body results, reset by every run of the body.
	torn, stale int
	maxSeq      [numWorkers]uint64
	prev        uint64

	bodyRuns  uint64
	bodyOutNs uint64 // traced: owned body time outside hardware attempts
	readBody  func(memmodel.Accessor)
	writeBody func(memmodel.Accessor)
}

func (k *llWorker) next() opClass {
	if k.rng.IntN(100) < llReadPct {
		k.op = classRead
		k.first = k.rng.IntN(llLines)
		k.half = memmodel.Addr(k.rng.IntN(2) * llGroup)
	} else {
		k.op = classWrite
		k.group = k.s.region + memmodel.Addr(k.rng.IntN(llLines*memmodel.LineWords/llGroup)*llGroup)
		k.seq = k.s.writes[k.w] + 1
	}
	return k.op
}

func (k *llWorker) call() {
	if k.op == classRead {
		k.h.Read(llReadCS, k.readBody)
	} else {
		k.h.Write(llWriteCS, k.writeBody)
	}
}

// bodyStart counts a run of an owned body and returns its start time when
// the traced run should charge it as body time outside hardware attempts,
// or -1. A body inside an attempt may unwind on abort, but its time is
// already part of the attempt's; a body outside one runs to its end.
func (k *llWorker) bodyStart(acc memmodel.Accessor) int64 {
	k.bodyRuns++
	if _, inTx := acc.(*txTrace); inTx || !k.s.l.traced {
		return -1
	}
	return nanotime()
}

func (k *llWorker) bodyEnd(start int64) {
	if start >= 0 {
		k.bodyOutNs += uint64(nanotime() - start)
	}
}

// read visits llReadLines consecutive lines (wrapping) and checks one
// group in each: its four words must match, and its seq must not exceed the
// writer's counter read in the same section. The counters are read last so
// that a hardware attempt reaches its capacity abort before touching them.
func (k *llWorker) read(acc memmodel.Accessor) {
	start := k.bodyStart(acc)
	k.torn, k.stale, k.maxSeq = 0, 0, [numWorkers]uint64{}
	for i := 0; i < llReadLines; i++ {
		a := k.s.region + memmodel.Addr((k.first+i)%llLines)*memmodel.LineWords + k.half
		v := acc.Load(a)
		if acc.Load(a+1) != v || acc.Load(a+2) != v || acc.Load(a+3) != v {
			k.torn++
			continue
		}
		w, seq := v>>llSeqBits, v&(1<<llSeqBits-1)
		if w >= numWorkers {
			k.torn++
			continue
		}
		k.maxSeq[w] = max(k.maxSeq[w], seq)
	}
	for w, c := range k.s.counters {
		if k.maxSeq[w] > acc.Load(c) {
			k.stale++
		}
	}
	k.bodyEnd(start)
}

// write stamps one group and advances the worker's counter.
func (k *llWorker) write(acc memmodel.Accessor) {
	start := k.bodyStart(acc)
	k.prev = acc.Load(k.s.counters[k.w])
	stamp := uint64(k.w)<<llSeqBits | k.seq
	for i := memmodel.Addr(0); i < llGroup; i++ {
		acc.Store(k.group+i, stamp)
	}
	acc.Store(k.s.counters[k.w], k.seq)
	k.bodyEnd(start)
}

func (k *llWorker) check() error {
	if k.op == classRead {
		if k.torn != 0 || k.stale != 0 {
			return fmt.Errorf("Read(lines %d+%d): %d torn groups, %d stamps newer than their writer's counter", k.first, llReadLines, k.torn, k.stale)
		}
		return nil
	}
	if k.prev != k.seq-1 {
		return fmt.Errorf("Write %d of worker %d saw counter %d", k.seq, k.w, k.prev)
	}
	k.s.writes[k.w] = k.seq
	return nil
}

// sweep checks, after the workers have joined, that every group is whole
// and that each worker's counter equals the writes it completed.
func (s *lockLong) sweep([]worker) (checked, failed uint64, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for w, c := range s.counters {
		checked++
		if got := s.mem.Load(c); got != s.writes[w] {
			fail(fmt.Errorf("sweep: worker %d counter %d, completed writes %d", w, got, s.writes[w]))
		}
	}
	for g := memmodel.Addr(0); g < llLines*memmodel.LineWords; g += llGroup {
		a := s.region + g
		v := s.mem.Load(a)
		checked++
		for i := memmodel.Addr(1); i < llGroup; i++ {
			if s.mem.Load(a+i) != v {
				fail(fmt.Errorf("sweep: group at %d torn", a))
				break
			}
		}
		if w := v >> llSeqBits; w >= numWorkers || v&(1<<llSeqBits-1) > s.writes[w] {
			fail(fmt.Errorf("sweep: group at %d holds stamp %#x no write issued", a, v))
		}
	}
	return checked, failed, first
}
