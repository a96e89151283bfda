package core

import (
	"sync"
	"testing"
	"time"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/stats"
)

func autoOpts(threshold uint64) Options {
	o := AutoSNZIOptions()
	o.AutoSNZIThreshold = threshold
	return o
}

func TestAutoName(t *testing.T) {
	l, _, _, _ := testSetup(t, 2, htm.Config{}, AutoSNZIOptions())
	if got := l.Name(); got != "SpRWL-Auto" {
		t.Fatalf("Name = %q, want SpRWL-Auto", got)
	}
}

func TestTrackTargetAndCoverage(t *testing.T) {
	backends := []ReaderTracking{TrackFlags, TrackSNZI, TrackBravo}
	for _, b := range backends {
		if got := trackTarget(uint64(b)); got != b {
			t.Errorf("trackTarget(%d) = %d, want %d", b, got, b)
		}
		if _, ok := drainingBackend(uint64(b)); ok {
			t.Errorf("steady mode %d reports a draining structure", b)
		}
	}
	// Every transition covers exactly its target and its draining
	// structure.
	for _, to := range backends {
		for _, from := range backends {
			if to == from {
				continue
			}
			m := transitionMode(to, from)
			if got := trackTarget(m); got != to {
				t.Errorf("trackTarget(%d→%d) = %d, want %d", from, to, got, to)
			}
			if d, ok := drainingBackend(m); !ok || d != from {
				t.Errorf("drainingBackend(%d→%d) = %d,%v, want %d,true", from, to, d, ok, from)
			}
			for _, s := range backends {
				want := s == to || s == from
				if covered(s, m) != want {
					t.Errorf("covered(%d, %d→%d) = %v, want %v", s, from, to, !want, want)
				}
			}
		}
	}
	// Steady modes only cover their own structure.
	for _, s := range backends {
		for _, m := range backends {
			if covered(s, uint64(m)) != (s == m) {
				t.Errorf("covered(%d, steady %d) = %v", s, m, covered(s, uint64(m)))
			}
		}
	}
}

// TestAutoSwitchesToSNZIForLongReaders: the sampling thread's long
// uninstrumented reads must flip tracking to SNZI, and short ones must flip
// it back. The threshold is calibrated against a measured short-read cost
// so the test holds under instrumentation overhead (e.g. -race).
func TestAutoSwitchesToSNZIForLongReaders(t *testing.T) {
	// Calibrate: how expensive is a trivial read on this build?
	probeOpts := autoOpts(1 << 62)
	probeOpts.ReaderHTMFirst = false
	pl, pe, par, _ := testSetup(t, 2, htm.Config{Threads: 2, Words: 1 << 14}, probeOpts)
	pdata := par.AllocLines(1)
	ph := pl.NewHandle(0)
	t0 := pe.Now()
	const probes = 64
	for i := 0; i < probes; i++ {
		ph.Read(0, func(acc memmodel.Accessor) { _ = acc.Load(pdata) })
	}
	shortCost := (pe.Now() - t0) / probes

	threshold := shortCost*16 + 4096
	opts := autoOpts(threshold)
	opts.ReaderHTMFirst = false // go uninstrumented (and sampled) directly
	l, e, ar, _ := testSetup(t, 2, htm.Config{Threads: 2, Words: 1 << 14}, opts)
	data := ar.AllocLines(1)
	h := l.NewHandle(0) // slot 0 runs the controller
	long := func(acc memmodel.Accessor) {
		_ = acc.Load(data)
		time.Sleep(time.Duration(4*threshold) * time.Nanosecond)
	}
	for i := 0; i < adaptEvery+2; i++ {
		h.Read(0, long)
	}
	if got := e.Load(l.trackMode); got != uint64(TrackSNZI) {
		t.Fatalf("trackMode = %d after long readers, want SNZI (%d)", got, TrackSNZI)
	}

	// And back again for short readers (hysteresis: the calibrated short
	// cost sits well under threshold/2).
	short := func(acc memmodel.Accessor) { _ = acc.Load(data) }
	for i := 0; i < 16*adaptEvery; i++ {
		h.Read(1, short)
	}
	if got := e.Load(l.trackMode); got != uint64(TrackFlags) {
		t.Fatalf("trackMode = %d after short readers, want flags (%d)", got, TrackFlags)
	}
}

// TestAutoWriterSeesReaderInEitherStructure: with the mode pinned to each
// steady and transition state, an active reader must abort the writer's
// commit.
func TestAutoWriterSeesReaderInEitherStructure(t *testing.T) {
	backends := []ReaderTracking{TrackFlags, TrackSNZI, TrackBravo}
	modes := []uint64{uint64(TrackFlags), uint64(TrackSNZI), uint64(TrackBravo)}
	for _, to := range backends {
		for _, from := range backends {
			if to != from {
				modes = append(modes, transitionMode(to, from))
			}
		}
	}
	for _, mode := range modes {
		opts := autoOpts(1 << 62) // controller never self-triggers
		opts.ReaderHTMFirst = false
		l, e, ar, col := testSetup(t, 2, htm.Config{}, opts)
		data := ar.AllocLines(1)
		e.Store(l.trackMode, mode)

		readerIn := make(chan struct{})
		readerGo := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.NewHandle(0).Read(0, func(acc memmodel.Accessor) {
				close(readerIn)
				<-readerGo
			})
		}()
		<-readerIn

		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.NewHandle(1).Write(1, func(acc memmodel.Accessor) { acc.Store(data, 1) })
			close(done)
		}()
		select {
		case <-done:
			t.Fatalf("mode %d: writer completed during an active reader", mode)
		case <-time.After(15 * time.Millisecond):
		}
		close(readerGo)
		wg.Wait()
		if got := col.Snapshot().Aborts[stats.Writer][0]; got != 0 {
			t.Fatalf("mode %d: impossible abort-cause slot", mode)
		}
	}
}

// TestAutoSnapshotConsistencyUnderSwitching: hammer the lock with a reader
// duration pattern that forces repeated mode switches while verifying the
// core snapshot invariant.
func TestAutoSnapshotConsistencyUnderSwitching(t *testing.T) {
	opts := autoOpts(4000)
	opts.ReaderHTMFirst = false
	const threads = 4
	l, e, ar, _ := testSetup(t, threads, htm.Config{Threads: threads, Words: 1 << 14}, opts)
	x := ar.AllocLines(1)
	y := ar.AllocLines(1)
	var wg sync.WaitGroup
	for s := 0; s < threads; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < 300; i++ {
				switch {
				case slot == 1:
					h.Write(0, func(acc memmodel.Accessor) {
						v := acc.Load(x) + 1
						acc.Store(x, v)
						acc.Store(y, v)
					})
				default:
					h.Read(1, func(acc memmodel.Accessor) {
						vx, vy := acc.Load(x), acc.Load(y)
						if vx != vy {
							t.Errorf("torn snapshot: %d vs %d", vx, vy)
						}
						if slot == 0 && i%40 < 20 {
							// Alternate long/short phases on
							// the sampling thread to force
							// mode churn.
							time.Sleep(10 * time.Microsecond)
						}
					})
				}
			}
		}(s)
	}
	wg.Wait()
	_ = e
}

// TestStaticModesIgnoreModeWord: without TrackAuto the tracking choice is
// fixed by options, even if the mode word is scribbled on.
func TestStaticModesIgnoreModeWord(t *testing.T) {
	opts := DefaultOptions()
	opts.ReaderHTMFirst = false
	l, e, ar, col := testSetup(t, 2, htm.Config{}, opts)
	e.Store(l.trackMode, uint64(TrackSNZI)) // must be ignored
	data := ar.AllocLines(1)
	h := l.NewHandle(0)
	h.Read(0, func(acc memmodel.Accessor) { _ = acc.Load(data) })
	if got := col.Snapshot().TotalCommits(stats.Reader); got != 1 {
		t.Fatalf("reads = %d, want 1", got)
	}
	if l.z.Query() {
		t.Fatal("static flag-mode reader left a SNZI arrival behind")
	}
}
