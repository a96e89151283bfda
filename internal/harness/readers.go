package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sprwl/internal/core"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwlock"
	"sprwl/internal/stats"
)

// Readers-at-scale sweep: the three reader-indicator backends (flag array,
// SNZI, BRAVO table) on the real concurrent runtime, from 1 to 256 reader
// goroutines. Unlike the simulated figures this measures wall-clock
// behaviour of the library plane — the flag array needs a preregistered
// slot per reader and tops out at the HTM emulation's slot limit, while
// SNZI and BRAVO register readers dynamically and keep going. The columns
// to watch: read throughput (BRAVO should track the flag array at low
// counts) and writer latency (the commit check is O(threads) for flags,
// O(table slots) for BRAVO — flat as goroutines grow).
//
// The sweep is wall-clock and therefore machine-dependent: it is NOT part
// of `-exp all`, so the committed BENCH_baseline.json and the -compare
// regression gate stay deterministic.

// readersWallNanos is the measured window per data point.
const (
	readersWallNanos      = 250_000_000 // 250ms
	readersQuickWallNanos = 80_000_000  // 80ms
	readersWritePaceNanos = 200_000     // one write per ~200µs
)

// readersGoroutineCounts is the sweep axis.
func readersGoroutineCounts(quick bool) []int {
	if quick {
		return []int{1, 8, 64, 256}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// readersBackendSpec is one series of the sweep.
type readersBackendSpec struct {
	algo string
	opts func() core.Options
	// dynamic readers register without a slot; static ones need one each
	// and cap the series at the slot limit.
	dynamic bool
}

func readersBackends() []readersBackendSpec {
	// NoSched base with uninstrumented readers: the measured loop is
	// arrive → load → depart against each indicator, not the scheduling
	// machinery (identical across the three series) or HTM reader elision
	// (which would bypass the indicator entirely).
	base := func(apply func(*core.Options)) func() core.Options {
		return func() core.Options {
			o := core.NoSchedOptions()
			o.ReaderHTMFirst = false
			apply(&o)
			return o
		}
	}
	return []readersBackendSpec{
		{AlgoSpRWL, base(func(*core.Options) {}), false},
		{AlgoSpRWLSNZI, base(func(o *core.Options) { o.ReaderTracking = core.TrackSNZI }), true},
		{AlgoSpRWLBravo, base(func(o *core.Options) { o.ReaderTracking = core.TrackBravo }), true},
	}
}

// RunReadersPoint measures one backend at one goroutine count: g readers
// in a tight uninstrumented-read loop plus one paced writer, for wallNanos
// of wall-clock time. Returns reads-per-Mcycle throughput and the writer's
// mean section latency.
func RunReadersPoint(spec readersBackendSpec, g int, wallNanos uint64) (Point, error) {
	staticSlots := 1 // the writer
	if !spec.dynamic {
		staticSlots = g + 1
		if staticSlots > htm.MaxThreads {
			return Point{}, fmt.Errorf("readers: %s needs %d slots, limit %d", spec.algo, staticSlots, htm.MaxThreads)
		}
	}
	opts := spec.opts()
	space, err := htm.NewSpace(htm.Config{
		Threads: staticSlots,
		Words:   core.WordsFor(staticSlots, opts) + LockWords(staticSlots),
	})
	if err != nil {
		return Point{}, err
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	l, err := core.New(e, ar, staticSlots, 2, opts, nil)
	if err != nil {
		return Point{}, err
	}
	data := ar.AllocLines(1)

	readerHandle := func(i int) (rwlock.Handle, error) {
		if spec.dynamic {
			return l.NewDynamicHandle()
		}
		return l.NewHandle(i + 1), nil
	}

	var stop atomic.Bool
	reads := make([]uint64, g*8) // one padded counter per reader
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		h, err := readerHandle(i)
		if err != nil {
			return Point{}, err
		}
		wg.Add(1)
		go func(i int, h rwlock.Handle) {
			defer wg.Done()
			var n uint64
			body := func(acc memmodel.Accessor) { _ = acc.Load(data) }
			for !stop.Load() {
				h.Read(0, body)
				n++
			}
			reads[i*8] = n
		}(i, h)
	}

	// The writer runs inline: paced updates, each section timed.
	w := l.NewHandle(0)
	start := e.Now()
	deadline := start + wallNanos
	var writes, writeCycles uint64
	body := func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) }
	for {
		now := e.Now()
		if now >= deadline {
			break
		}
		w.Write(1, body)
		writeCycles += e.Now() - now
		writes++
		e.WaitUntil(e.Now() + readersWritePaceNanos)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := e.Now() - start

	var totalReads uint64
	for i := 0; i < g; i++ {
		totalReads += reads[i*8]
	}
	pt := Point{
		Algo:       spec.algo,
		Threads:    g,
		Ops:        totalReads,
		Cycles:     elapsed,
		Throughput: float64(totalReads) / (float64(elapsed) / 1e6),
	}
	if writes > 0 {
		pt.WriterLatency = float64(writeCycles) / float64(writes)
	}
	return pt, nil
}

// Oversubscription leg: the same read-heavy loop, but with far more reader
// goroutines than scheduler procs, comparing spin-only waiting against
// spin-then-park. GOMAXPROCS is pinned low so waiting actually contends for
// quanta: a spinning waiter then burns a timeslice the lock holder (or the
// writer's drain scan) needed, which is precisely the regime parking is
// for. The wait profiler is attached, so each point also reports how many
// stalled reader cycles were burned spinning versus slept parked.
const oversubProcs = 4

// oversubGoroutineCounts is the oversubscription sweep axis (GOMAXPROCS is
// pinned to oversubProcs, so every count here is heavily oversubscribed).
func oversubGoroutineCounts(quick bool) []int {
	if quick {
		return []int{64, 256}
	}
	return []int{64, 128, 256, 512, 1024}
}

// RunOversubPoint measures one oversubscribed point: g dynamic SNZI readers
// in a tight uninstrumented-read loop plus one paced writer, with waiter
// parking on or off, the wait profiler attached, for wallNanos of wall
// clock. The returned point carries the reader-side wait attribution
// (SpinWaitCycles vs ParkedCycles); the caller is expected to have pinned
// GOMAXPROCS.
func RunOversubPoint(g int, parking bool, wallNanos uint64) (Point, error) {
	opts := core.NoSchedOptions()
	opts.ReaderHTMFirst = false
	opts.ReaderTracking = core.TrackSNZI

	space, err := htm.NewSpace(htm.Config{
		Threads: 1,
		Words:   core.WordsFor(1, opts) + LockWords(1),
	})
	if err != nil {
		return Point{}, err
	}
	e := htm.NewRuntime(space, nil)
	e.SetParking(parking)
	ar := memmodel.NewArena(0, space.Size())

	// Ring slot 0 is the writer; dynamic reader i records into ring 1+i.
	prof := obs.NewProfileSink(1 + g)
	col := stats.NewCollector(1 + g)
	pipe := col.Pipeline(prof)
	l, err := core.New(e, ar, 1, 2, opts, pipe)
	if err != nil {
		return Point{}, err
	}
	data := ar.AllocLines(1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		h, err := l.NewDynamicHandleObserved(1 + i)
		if err != nil {
			return Point{}, err
		}
		wg.Add(1)
		go func(h rwlock.Handle) {
			defer wg.Done()
			body := func(acc memmodel.Accessor) { _ = acc.Load(data) }
			for !stop.Load() {
				h.Read(0, body)
			}
		}(h)
	}

	w := l.NewHandle(0)
	start := e.Now()
	deadline := start + wallNanos
	body := func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) }
	for e.Now() < deadline {
		w.Write(1, body)
		e.WaitUntil(e.Now() + readersWritePaceNanos)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := e.Now() - start
	pipe.Flush()

	algo := AlgoSpRWL + "/spin"
	if parking {
		algo = AlgoSpRWL + "/park"
	}
	pt := pointFrom(algo, g, col.Snapshot(), elapsed)
	// Reader-side wait attribution only: the herd is what is
	// oversubscribed, and the writer's indicator-drain scan spins in both
	// configurations by design.
	for _, c := range prof.Profiles() {
		if c.RW != obs.Reader {
			continue
		}
		pt.SpinWaitCycles += c.SpinWait()
		pt.ParkedCycles += c.ParkedCycles
		pt.Parks += c.Parks
	}
	return pt, nil
}

// OversubSweep runs the spin-only vs spin-then-park oversubscription matrix
// with GOMAXPROCS pinned to oversubProcs, returning one section of the
// readers report.
func OversubSweep(opts RunOpts) (Section, error) {
	wall := uint64(readersWallNanos)
	if opts.Quick {
		wall = readersQuickWallNanos
	}
	sec := Section{Title: fmt.Sprintf(
		"oversubscription, GOMAXPROCS=%d: spin-only vs spin-then-park (spin/parked = reader wait cycles burned spinning vs slept parked)",
		oversubProcs)}
	prev := runtime.GOMAXPROCS(oversubProcs)
	defer runtime.GOMAXPROCS(prev)
	for _, g := range oversubGoroutineCounts(opts.Quick) {
		for _, parking := range []bool{false, true} {
			if opts.Progress != nil {
				opts.Progress(fmt.Sprintf("oversub g=%d parking=%t", g, parking))
			}
			pt, err := RunOversubPoint(g, parking, wall)
			if err != nil {
				return Section{}, err
			}
			sec.Points = append(sec.Points, pt)
			time.Sleep(2 * time.Millisecond)
		}
	}
	return sec, nil
}

// ReadersSweep runs the full backend × goroutine-count matrix. Points run
// sequentially (never in parallel) — each one wants the whole machine.
func ReadersSweep(opts RunOpts) (*Report, error) {
	wall := uint64(readersWallNanos)
	if opts.Quick {
		wall = readersQuickWallNanos
	}
	rep := &Report{
		ID:    "readers",
		Title: "Reader indicators at scale (real runtime, wall clock)",
		Notes: []string{
			"extension experiment: flag array vs SNZI vs BRAVO reader registration, 1–256 goroutines",
			"wall-clock measurement — machine-dependent, excluded from -exp all and the -compare gate",
			fmt.Sprintf("flag array is slot-bound: series stops at %d readers", htm.MaxThreads-1),
		},
		Sections: []Section{{Title: "uninstrumented reads + paced writer (ops/Mcyc = reads per Mcycle; wrLat includes the commit-time reader check)"}},
	}
	for _, spec := range readersBackends() {
		for _, g := range readersGoroutineCounts(opts.Quick) {
			if !spec.dynamic && g+1 > htm.MaxThreads {
				continue
			}
			if opts.Progress != nil {
				opts.Progress(fmt.Sprintf("readers %s@%d", spec.algo, g))
			}
			pt, err := RunReadersPoint(spec, g, wall)
			if err != nil {
				return nil, err
			}
			rep.Sections[0].Points = append(rep.Sections[0].Points, pt)
			// Let the goroutine herd fully drain between points.
			time.Sleep(2 * time.Millisecond)
		}
	}
	oversub, err := OversubSweep(opts)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("oversubscription leg: GOMAXPROCS pinned to %d, %v dynamic readers, spin-only vs spin-then-park waiters", oversubProcs, oversubGoroutineCounts(opts.Quick)))
	rep.Sections = append(rep.Sections, oversub)
	return rep, nil
}
