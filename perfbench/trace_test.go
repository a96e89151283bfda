package main

import (
	"testing"
	"time"

	"sprwl/internal/env"
)

// TestTracedLockLongRegime runs lock-long over the tracer on one goroutine:
// every read must abort its one hardware attempt on capacity and then run
// uninstrumented, with the owned body run twice.
func TestTracedLockLongRegime(t *testing.T) {
	l := &layers{traced: true}
	s, err := setupLockLong(l)
	if err != nil {
		t.Fatal(err)
	}
	r := s.newWorker(0, 1).(*llWorker)
	const reads = 50
	for i := 0; i < reads; i++ {
		r.op, r.first, r.half = classRead, i*7%llLines, 0
		r.call()
		if err := r.check(); err != nil {
			t.Fatal(err)
		}
	}
	tot := l.tr.totals()
	snap := l.col.Snapshot()
	if tot.attempts != reads || tot.aborts[env.AbortCapacity] != reads {
		t.Errorf("attempts %d, capacity aborts %d; want %d each", tot.attempts, tot.aborts[env.AbortCapacity], reads)
	}
	if got := snap.TotalOps(); got != reads {
		t.Errorf("stats pipeline saw %d sections, want %d", got, reads)
	}
	if r.bodyRuns != 2*reads || r.bodyOutNs == 0 {
		t.Errorf("owned body ran %d times for %v outside attempts; want %d runs", r.bodyRuns, r.bodyOutNs, 2*reads)
	}
	if tot.loads < reads*llReadLines*llGroup {
		t.Errorf("%d uninstrumented loads, want at least %d", tot.loads, reads*llReadLines*llGroup)
	}
	if tot.txLoads == 0 || tot.wastedTxLoads != tot.txLoads {
		t.Errorf("tx loads %d, wasted %d: every attempt aborted, so all are wasted", tot.txLoads, tot.wastedTxLoads)
	}
}

// TestTracedPhaseCountsOnlyItsOps runs a short traced kv-point phase. Its
// counts must cover the phase's ops and nothing else: not the populate
// step of set-up, which stores every key through the tracer, and not the
// end-of-run sweep, which reads every key through it.
func TestTracedPhaseCountsOnlyItsOps(t *testing.T) {
	l := &layers{traced: true}
	s, err := setupKV(kvMix{}, l)
	if err != nil {
		t.Fatal(err)
	}
	p := runPhase(s, l, 1, 0, 100*time.Millisecond)
	if p.failed != 0 {
		t.Fatalf("%d failed checks; first %v", p.failed, p.first)
	}
	if p.ops == 0 || p.ops >= kvItems {
		t.Fatalf("%d ops: the test needs fewer ops than the sweep's %d reads", p.ops, kvItems)
	}
	if got := p.commits.TotalOps(); got != p.ops {
		t.Errorf("stats pipeline counted %d sections over %d ops", got, p.ops)
	}
	if a := p.layer.attempts; a < p.ops || a > p.ops+p.ops/10 {
		t.Errorf("%d hardware attempts over %d all-HTM ops", a, p.ops)
	}
	if st := uint64(p.layer.stores); st > p.ops {
		t.Errorf("%d uninstrumented stores over %d all-HTM ops", st, p.ops)
	}
}
