package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/stats"
	"sprwl/internal/tpcc"
	"sprwl/internal/workload"
)

func TestBuildLockKnowsEveryAlgorithm(t *testing.T) {
	for _, name := range AllAlgorithms() {
		space := htm.MustNewSpace(htm.Config{Threads: 4, Words: LockWords(4) + 1024})
		e := htm.NewRuntime(space, nil)
		ar := memmodel.NewArena(0, space.Size())
		l, err := BuildLock(name, e, ar, 4, 4, stats.NewCollector(4).Pipeline())
		if err != nil {
			t.Errorf("BuildLock(%q): %v", name, err)
			continue
		}
		if l.Name() == "" {
			t.Errorf("BuildLock(%q): empty Name", name)
		}
	}
}

// TestSimulatedPointIgnoresGOMAXPROCS: a simulated point is a function of
// its configuration and seed alone. SpRWL-Auto's BRAVO table once took its
// size from GOMAXPROCS, which moved the quick extauto points with the host's
// CPU count; run the most sensitive one (32 threads, 128 lookups) at two
// GOMAXPROCS values and require identical results.
func TestSimulatedPointIgnoresGOMAXPROCS(t *testing.T) {
	opts := RunOpts{Quick: true, Seed: 1}
	wl := hashmapFor(htm.Power8())
	wl.LookupsPerRead = 128
	wl.UpdatePercent = 50
	cfg := HashmapPointConfig{
		Algo: AlgoSpRWLAuto, Threads: 32, Profile: htm.Power8(),
		Workload: wl, Horizon: opts.horizon(), Seed: opts.Seed,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var pts []Point
	for _, procs := range []int{2, 16} {
		runtime.GOMAXPROCS(procs)
		pt, err := RunHashmapPoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	if !reflect.DeepEqual(pts[0], pts[1]) {
		t.Fatalf("point differs between GOMAXPROCS 2 and 16:\n%+v\n%+v", pts[0], pts[1])
	}
}

func TestBuildLockRejectsUnknown(t *testing.T) {
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 12})
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	if _, err := BuildLock("bogus", e, ar, 1, 1, nil); err == nil {
		t.Fatal("BuildLock accepted an unknown algorithm")
	}
}

func smallHashmapCfg() workload.HashmapConfig {
	return workload.HashmapConfig{Buckets: 128, Items: 8192, LookupsPerRead: 10, UpdatePercent: 10}
}

func TestRunHashmapPointIsDeterministic(t *testing.T) {
	cfg := HashmapPointConfig{
		Algo: AlgoSpRWL, Threads: 8, Profile: htm.Power8(),
		Workload: smallHashmapCfg(), Horizon: 200_000, Seed: 3,
	}
	a, err := RunHashmapPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHashmapPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs produced different points:\n%+v\n%+v", a, b)
	}
	if a.Ops == 0 {
		t.Fatal("point completed zero operations")
	}
}

// TestHeadlineShape is the core qualitative claim of the paper at miniature
// scale: with long readers, SpRWL clearly outperforms TLE, whose readers
// collapse onto the serial fallback lock.
func TestHeadlineShape(t *testing.T) {
	run := func(algo string) Point {
		pt, err := RunHashmapPoint(HashmapPointConfig{
			Algo: algo, Threads: 8, Profile: htm.Power8(),
			Workload: smallHashmapCfg(), Horizon: 400_000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	sprwl := run(AlgoSpRWL)
	tle := run(AlgoTLE)
	if sprwl.Throughput < 2*tle.Throughput {
		t.Fatalf("SpRWL (%.1f) not clearly above TLE (%.1f) with long readers", sprwl.Throughput, tle.Throughput)
	}
	if sprwl.UninsShare < 0.5 {
		t.Fatalf("SpRWL uninstrumented share = %.2f, expected the majority of commits", sprwl.UninsShare)
	}
	if tle.GLShare < 0.5 {
		t.Fatalf("TLE GL share = %.2f, expected fallback-dominated execution", tle.GLShare)
	}
}

func TestRunTPCCPoint(t *testing.T) {
	pt, err := RunTPCCPoint(TPCCPointConfig{
		Algo: AlgoSpRWL, Threads: 4, Profile: htm.Power8(),
		Scale:   tpcc.Config{Warehouses: 4, CustomersPerDistrict: 16, Items: 256},
		Mix:     workload.PaperMix(),
		Horizon: 200_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Ops == 0 {
		t.Fatal("TPC-C point completed zero transactions")
	}
}

func TestRunHashmapReal(t *testing.T) {
	pt, err := RunHashmapReal(AlgoSpRWL, 2, htm.Power8(),
		workload.HashmapConfig{Buckets: 64, Items: 2048, LookupsPerRead: 5, UpdatePercent: 20},
		20_000_000 /* 20ms */, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Ops == 0 {
		t.Fatal("real-mode run completed zero operations")
	}
}

func TestThreadSweeps(t *testing.T) {
	full := threadSweep(htm.Broadwell(), false)
	quick := threadSweep(htm.Broadwell(), true)
	if len(quick) >= len(full) {
		t.Fatalf("quick sweep (%d points) not thinner than full (%d)", len(quick), len(full))
	}
	p8 := threadSweep(htm.Power8(), false)
	if p8[len(p8)-1] > htm.MaxThreads {
		t.Fatalf("power8 sweep exceeds the simulator's %d-slot limit", htm.MaxThreads)
	}
}

func TestReportFormatAndCSV(t *testing.T) {
	rep := &Report{
		ID: "figX", Title: "test figure",
		Notes: []string{"a note"},
		Sections: []Section{{
			Title: "10% update",
			Points: []Point{
				{Algo: "SpRWL", Threads: 8, Ops: 100, Cycles: 1000, Throughput: 12.5, UninsShare: 0.9},
				{Algo: "TLE", Threads: 8, Ops: 10, Cycles: 1000, Throughput: 1.5, GLShare: 0.95},
			},
		}},
	}
	var text, csv strings.Builder
	rep.Format(&text)
	rep.CSV(&csv)
	for _, want := range []string{"figX", "test figure", "a note", "SpRWL", "TLE", "10% update"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("Format output missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[1], "figX,10% update,SpRWL,8,") {
		t.Fatalf("unexpected CSV row: %q", lines[1])
	}

	best, ok := rep.Best("SpRWL", "")
	if !ok || best.Throughput != 12.5 {
		t.Fatalf("Best(SpRWL) = %+v,%v", best, ok)
	}
	if _, ok := rep.Best("nope", ""); ok {
		t.Fatal("Best found a nonexistent algorithm")
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	exps := Experiments()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "extscan", "extauto", "extvsgl"} {
		if exps[id] == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

// TestQuickFigureRunsEndToEnd runs the smallest full figure (fig5 at quick
// settings with a tiny horizon) through the registry to cover the sweep
// plumbing.
func TestQuickFigureRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure plumbing test is slow under -short")
	}
	rep, err := Fig5(RunOpts{Quick: true, Horizon: 80_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sections) == 0 || len(rep.Sections[0].Points) == 0 {
		t.Fatal("fig5 produced no points")
	}
}

// TestParallelSweepIsOrderStable is the determinism contract of the
// parallel driver: the same figure run serially and with a worker pool must
// produce byte-identical reports.
func TestParallelSweepIsOrderStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure plumbing test is slow under -short")
	}
	run := func(parallel int) []byte {
		rep, err := Fig5(RunOpts{Quick: true, Horizon: 80_000, Seed: 1, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, []*Report{rep}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	pooled := run(4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("parallel sweep diverged from serial run:\nserial: %d bytes\npooled: %d bytes", len(serial), len(pooled))
	}
}
