package main

import (
	"strings"
	"testing"

	"sprwl/internal/memmodel"
)

func newKV(t *testing.T, mix kvMix) (*kvStore, []worker) {
	t.Helper()
	s, err := setupKV(mix, &layers{})
	if err != nil {
		t.Fatal(err)
	}
	return s, []worker{s.newWorker(0, 1), s.newWorker(1, 1)}
}

// drive runs n ops of each worker in turn on one goroutine and fails the
// test on the first check that does not pass.
func drive(t *testing.T, ws []worker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for _, w := range ws {
			w.next()
			w.call()
			if err := w.check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
}

func TestKVOracleAcceptsCorrectRuns(t *testing.T) {
	s, ws := newKV(t, kvMix{zipf: 0.99, scanPct: 5, multiPct: 10})
	drive(t, ws, 20_000)
	if _, failed, first := s.sweep(ws); failed != 0 {
		t.Fatalf("sweep of a correct run: %d failures, first %v", failed, first)
	}
}

func TestKVOracleFlagsCorruption(t *testing.T) {
	s, ws := newKV(t, kvMix{})
	c := ws[0].(*kvWorker).c

	// A value written behind the oracle's back: the sweep must see it.
	c.Put(42, putValue(0, 1, 42))
	if _, failed, first := s.sweep(ws); failed != 1 || !strings.Contains(first.Error(), "Get(42)") {
		t.Fatalf("sweep after a stray Put: %d failures, first %v", failed, first)
	}

	// A Get by the owner that disagrees with its oracle, and Gets by the
	// other worker of values no Put or MultiPut could have written.
	bad := []struct {
		key, val uint64
		why      string
	}{
		{42, 42, "owner's oracle holds another value"},
		{43, 44, "encodes another key"},
		{43, putValue(1, 7, 43), "Put seq never issued"},
		{43, putValue(0, 1, 43), "stamped by a worker that does not own the key"},
		{43, multiValue(1, 1), "MultiPut seq never issued"},
	}
	s.oracle[42] = putValue(0, 1, 42)
	for _, b := range bad {
		if err := s.checkGet(0, b.key, b.val, true); err == nil {
			t.Errorf("Get(%d) = %#x by worker 0 passed: %s", b.key, b.val, b.why)
		}
	}
	// A non-owner cannot know whether the key is present.
	if err := s.checkGet(1, 42, 0, false); err != nil {
		t.Errorf("absent key read by a non-owner: %v", err)
	}

	// A scan that misses one of the scanner's own keys, or sees more
	// keys than exist.
	if err := s.checkScan(0, 1000, 63); err == nil {
		t.Error("scan missing an own key passed")
	}
	if err := s.checkScan(0, 1000, 129); err == nil {
		t.Error("scan over-count passed")
	}
	if err := s.checkScan(0, kvItems-10, 10); err != nil {
		t.Errorf("scan at the end of the key space: %v", err)
	}
}

func newLockLong(t *testing.T) (*lockLong, []worker) {
	t.Helper()
	s, err := setupLockLong(&layers{})
	if err != nil {
		t.Fatal(err)
	}
	return s, []worker{s.newWorker(0, 1), s.newWorker(1, 1)}
}

func TestLockLongOracleAcceptsCorrectRuns(t *testing.T) {
	s, ws := newLockLong(t)
	drive(t, ws, 500)
	if _, failed, first := s.sweep(ws); failed != 0 {
		t.Fatalf("sweep of a correct run: %d failures, first %v", failed, first)
	}
}

func TestLockLongOracleFlagsCorruption(t *testing.T) {
	s, ws := newLockLong(t)
	drive(t, ws, 200)

	// A torn group: one word of a stamped group changed directly.
	s.mem.Store(s.region+5, 99)
	r := ws[0].(*llWorker)
	r.op, r.first, r.half = classRead, 0, 4
	r.call()
	if err := r.check(); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("read over a torn group: %v", err)
	}
	if _, failed, _ := s.sweep(ws); failed == 0 {
		t.Fatal("sweep passed a torn group")
	}
	s.mem.Store(s.region+5, s.mem.Load(s.region+4))

	// A stamp newer than its writer's counter.
	s.mem.Store(s.counters[1], s.writes[1]-1)
	r.op, r.first, r.half = classRead, 0, 0
	for l := 0; l < llReadLines; l++ {
		for i := 0; i < llGroup; i++ {
			s.mem.Store(s.region+memmodel.Addr(l*memmodel.LineWords+i), uint64(1)<<llSeqBits|s.writes[1])
		}
	}
	r.call()
	if err := r.check(); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("read of a stamp newer than its counter: %v", err)
	}
	if _, failed, first := s.sweep(ws); failed == 0 || !strings.Contains(first.Error(), "counter") {
		t.Fatalf("sweep with a lost counter update: %v", first)
	}

	// A write that does not see its own previous write.
	w := ws[0].(*llWorker)
	w.next()
	for w.op != classWrite {
		w.next()
	}
	s.writes[0]++ // the oracle now expects one more write than happened
	w.seq = s.writes[0] + 1
	w.call()
	if err := w.check(); err == nil {
		t.Fatal("write after a lost write passed")
	}
}
