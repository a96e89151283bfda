package core

import (
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/stats"
	"sprwl/internal/tsc"
)

// testSetupVirtual is testSetup on a virtual cycle clock: timed waits
// complete by jumping time to their deadline (tsc.Sleeper), so the tests
// below assert wait targets with exact equality instead of sleeping real
// milliseconds and allowing scheduler slack.
func testSetupVirtual(t *testing.T, threads int, opts Options) (*Lock, env.Env, *tsc.Virtual) {
	t.Helper()
	space, err := htm.NewSpace(htm.Config{Threads: threads, Words: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	vc := tsc.NewVirtual(0)
	e := htm.NewRuntime(space, vc)
	ar := memmodel.NewArena(0, space.Size())
	col := stats.NewCollector(threads)
	l, err := New(e, ar, threads, 8, opts, col.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return l, e, vc
}

// TestReaderTimedWaitUsesWriterClock: with the §3.4 timed wait a deferring
// reader sleeps until the writer's advertised end time instead of returning
// as soon as the flag clears. On the virtual clock the only thing that can
// advance time is that timed wait, so the reader's entry timestamp must
// equal the advertised clock exactly.
func TestReaderTimedWaitUsesWriterClock(t *testing.T) {
	opts := RSyncOptions()
	opts.ReaderHTMFirst = false
	l, e, _ := testSetupVirtual(t, 3, opts)

	const writerEnd = 20_000_000
	e.Store(l.clockWAddr(0), writerEnd)
	e.Store(l.stateAddr(0), stateWriter)

	entered := make(chan uint64, 1)
	go func() {
		l.NewHandle(1).Read(0, func(acc memmodel.Accessor) {})
		entered <- e.Now()
	}()

	// Wait until the reader has committed to deferring (it advertises a
	// joinable wait before sleeping), then clear the writer flag. No
	// real-time guessing: the handshake is on simulated memory.
	for e.Load(l.waitingForAddr(1)) == 0 {
		e.Yield()
	}
	e.Store(l.stateAddr(0), stateEmpty)
	l.wakes.Wake(l.stateAddr(0))

	select {
	case at := <-entered:
		if at != writerEnd {
			t.Fatalf("reader entered at %d, want exactly the advertised writer end %d", at, writerEnd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never entered")
	}
}

// TestWriterWaitTargetsLastReaderEnd: Alg. 3's writer_wait delays the retry
// until exactly the last advertised reader end time minus half the writer's
// expected duration (target = lastReaderEnd - dur + δ, δ = dur/2).
func TestWriterWaitTargetsLastReaderEnd(t *testing.T) {
	l, e, _ := testSetupVirtual(t, 3, DefaultOptions())
	h := l.NewHandle(0).(*handle)

	// Teach the estimator a 2M-cycle writer duration for cs 0.
	const writerDur = 2_000_000
	l.est.Sample(0, writerDur)

	const readerRemaining = 15_000_000
	e.Store(l.clockRAddr(1), readerRemaining)
	e.Store(l.clockRAddr(2), readerRemaining/2) // earlier reader: ignored

	before := e.Now()
	h.writerWait(0)
	waited := e.Now() - before

	if want := uint64(readerRemaining - writerDur/2); waited != want {
		t.Fatalf("writerWait waited %d cycles, want exactly %d", waited, want)
	}
}

// TestWriterWaitNoActiveReadersReturnsImmediately: with no advertised
// reader end times the wait is a no-op — zero virtual cycles.
func TestWriterWaitNoActiveReadersReturnsImmediately(t *testing.T) {
	l, e, _ := testSetupVirtual(t, 2, DefaultOptions())
	h := l.NewHandle(0).(*handle)
	before := e.Now()
	h.writerWait(0)
	if waited := e.Now() - before; waited != 0 {
		t.Fatalf("writerWait with no readers waited %d cycles, want 0", waited)
	}
}

// TestWriterAttemptAbortsWhenGLHeld: the SGL subscription inside the
// writer's transaction must fire — with the lock held, hardware attempts
// abort explicitly and the writer queues for the fallback.
func TestWriterAttemptAbortsWhenGLHeld(t *testing.T) {
	opts := NoSchedOptions()
	l, e, ar, col := testSetup(t, 2, htm.Config{}, opts)
	data := ar.AllocLines(1)

	l.gl.Lock()
	done := make(chan struct{})
	go func() {
		l.NewHandle(1).Write(0, func(acc memmodel.Accessor) { acc.Store(data, 1) })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("writer completed while the fallback lock was held externally")
	case <-time.After(15 * time.Millisecond):
	}
	l.gl.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never completed after the lock was released")
	}
	if got := e.Load(data); got != 1 {
		t.Fatalf("data = %d, want 1", got)
	}
	_ = col
}

// TestVersionedSGLWriterGatesOnRegistration: a fallback writer with
// VersionedSGL must not start executing while a reader is registered
// against an older lock version (§3.3's writer-side half).
func TestVersionedSGLWriterGatesOnRegistration(t *testing.T) {
	opts := DefaultOptions()
	opts.VersionedSGL = true
	l, e, ar, _ := testSetup(t, 2, htm.Config{}, opts)
	data := ar.AllocLines(1)

	// Register reader slot 1 against the current version.
	observed := e.Load(l.glVer)
	e.Store(l.readerVerAddr(1), observed+1)

	h := l.NewHandle(0).(*handle)
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(started)
		h.lockGL(0) // bumps the version, then must wait for the registration
		l.e.Store(data, 1)
		l.gl.Unlock()
		close(done)
	}()
	<-started
	select {
	case <-done:
		t.Fatal("fallback writer proceeded past a registered older-version reader")
	case <-time.After(20 * time.Millisecond):
	}
	// Retiring the registration releases the writer.
	e.Store(l.readerVerAddr(1), 0)
	l.wakes.Wake(l.readerVerAddr(1))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still gated after the registration was retired")
	}
	if got := e.Load(data); got != 1 {
		t.Fatalf("data = %d, want 1", got)
	}
}

// TestReaderLatencyRecorded: latencies flow into the collector with
// sensible magnitudes (a deliberately slow read has higher recorded
// latency than a fast one).
func TestReaderLatencyRecorded(t *testing.T) {
	opts := DefaultOptions()
	opts.ReaderHTMFirst = false
	l, _, ar, col := testSetup(t, 2, htm.Config{}, opts)
	data := ar.AllocLines(1)
	h := l.NewHandle(0)
	h.Read(0, func(acc memmodel.Accessor) { _ = acc.Load(data) })
	h.Read(0, func(acc memmodel.Accessor) { time.Sleep(3 * time.Millisecond) })
	s := col.Snapshot()
	if s.LatencyCount[stats.Reader] != 2 {
		t.Fatalf("latency samples = %d, want 2", s.LatencyCount[stats.Reader])
	}
	if p99 := s.Percentile(stats.Reader, 0.99); p99 < 1_000_000 {
		t.Fatalf("p99 reader latency = %d cycles, expected the slow read (~3ms) to dominate", p99)
	}
}
