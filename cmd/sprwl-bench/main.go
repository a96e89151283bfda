// Command sprwl-bench regenerates the paper's evaluation figures (see
// DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	sprwl-bench -exp fig3 -profile broadwell          # one figure
//	sprwl-bench -exp all -profile power8 -quick       # smoke sweep
//	sprwl-bench -exp all -quick -parallel 8           # 8 points at a time
//	sprwl-bench -exp fig3 -csv fig3.csv               # machine-readable
//	sprwl-bench -exp all -quick -json bench.json      # JSON results
//	sprwl-bench -compare BENCH_baseline.json bench.json -threshold 5%
//	    # threshold-based regression diff of two -json files; exits 1 if
//	    # any matched point's throughput regressed beyond the threshold
//	sprwl-bench -mode real -algo SpRWL -threads 4     # library-plane point
//	sprwl-bench -trace out.json -algo SpRWL -threads 8
//	    # one hashmap point with the Chrome-trace sink attached; open
//	    # out.json in chrome://tracing or https://ui.perfetto.dev
//	sprwl-bench -trace out.json -waitprof             # plus wait/work table
//
// Simulated runs are deterministic: the same seed, flags and build produce
// identical output regardless of -parallel.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"sprwl/internal/harness"
	"sprwl/internal/htm"
	"sprwl/internal/obs"
	"sprwl/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sprwl-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "fig3", "experiment to run: fig3|fig4|fig5|fig6|fig7|extscan|extauto|extvsgl|all, or readers|shards (wall-clock, not part of all)")
		profile  = flag.String("profile", "broadwell", "machine profile: broadwell|power8")
		quick    = flag.Bool("quick", false, "thin sweeps and shorten horizons (smoke run)")
		horizon  = flag.Uint64("horizon", 0, "virtual cycles per data point (0 = default)")
		seed     = flag.Uint64("seed", 1, "workload RNG seed")
		parallel = flag.Int("parallel", 0, "data points measured concurrently (0 = GOMAXPROCS); output is identical for any value")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
		jsonPath = flag.String("json", "", "also write results as JSON to this file")
		verbose  = flag.Bool("v", false, "print each data point as it completes")

		comparePath = flag.String("compare", "", "regression-diff this baseline -json file against the one named by the first positional argument, then exit")
		threshold   = flag.String("threshold", "5%", "with -compare: relative throughput loss that counts as a regression")

		mode    = flag.String("mode", "sim", "sim (discrete-event figures) or real (library plane)")
		algo    = flag.String("algo", harness.AlgoSpRWL, "real/trace mode: algorithm ("+strings.Join(harness.AllAlgorithms(), "|")+")")
		threads = flag.Int("threads", 2, "real/trace mode: worker goroutines")
		millis  = flag.Uint64("millis", 200, "real mode: wall-clock run length")

		tracePath = flag.String("trace", "", "run one hashmap point with a Chrome-trace sink and write the catapult JSON here")
		waitprof  = flag.Bool("waitprof", false, "with -trace: also print the wait-vs-work profile table")
	)
	flag.Parse()

	if *comparePath != "" {
		// Usage: sprwl-bench -compare old.json new.json [-threshold 5%].
		// Flag parsing stops at the first positional argument, so accept
		// -threshold after the new-file operand too.
		if flag.NArg() < 1 {
			return errors.New("-compare needs the new -json file as a positional argument")
		}
		sub := flag.NewFlagSet("compare", flag.ContinueOnError)
		trailingThreshold := sub.String("threshold", *threshold, "relative throughput loss that counts as a regression")
		if err := sub.Parse(flag.Args()[1:]); err != nil {
			return err
		}
		if sub.NArg() != 0 {
			return fmt.Errorf("-compare takes exactly two files, got extra arguments %q", sub.Args())
		}
		return runCompare(*comparePath, flag.Arg(0), *trailingThreshold)
	}

	p, err := profileByName(*profile)
	if err != nil {
		return err
	}

	if *tracePath != "" {
		return runTrace(*tracePath, *waitprof, *mode, *algo, *threads, p, *horizon, *seed, *millis)
	}

	if *mode == "real" {
		wl := workload.HashmapConfig{Buckets: 256, Items: 16384, LookupsPerRead: 10, UpdatePercent: 10}
		pt, err := harness.RunHashmapReal(*algo, *threads, p, wl, *millis*1_000_000, *seed)
		if err != nil {
			return err
		}
		fmt.Println(pt)
		return nil
	}

	opts := harness.RunOpts{Profile: p, Horizon: *horizon, Quick: *quick, Seed: *seed, Parallel: *parallel}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	if *exp == "readers" || *exp == "shards" {
		// Wall-clock sweeps on the real runtime: machine-dependent, so
		// they are not part of -exp all or the -compare regression gate.
		sweep := harness.ReadersSweep
		if *exp == "shards" {
			sweep = harness.ShardsSweep
		}
		rep, err := sweep(opts)
		if err != nil {
			return err
		}
		rep.Format(os.Stdout)
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			rep.CSV(f)
		}
		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			return harness.WriteJSON(f, []*harness.Report{rep})
		}
		return nil
	}

	experiments := harness.Experiments()
	var ids []string
	if *exp == "all" {
		for id := range experiments {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	} else {
		if _, ok := experiments[*exp]; !ok {
			return fmt.Errorf("unknown experiment %q (want fig3..fig7, readers, shards, or all)", *exp)
		}
		ids = []string{*exp}
	}

	var csv *os.File
	if *csvPath != "" {
		csv, err = os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer csv.Close()
	}

	var reports []*harness.Report
	for _, id := range ids {
		rep, err := experiments[id](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		rep.Format(os.Stdout)
		fmt.Println()
		if csv != nil {
			rep.CSV(csv)
		}
		reports = append(reports, rep)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := harness.WriteJSON(f, reports); err != nil {
			return err
		}
	}
	return nil
}

// runTrace executes one hashmap data point with the Chrome-trace exporter
// (and optionally the wait/work profiler) attached, writing the catapult
// file to path. Simulated by default; -mode real traces the concurrent
// runtime instead.
func runTrace(path string, waitprof bool, mode, algo string, threads int, p htm.Profile, horizon, seed, millis uint64) error {
	tr := obs.NewTraceSink(threads)
	sinks := []obs.Sink{tr}
	var prof *obs.ProfileSink
	if waitprof {
		prof = obs.NewProfileSink(threads)
		sinks = append(sinks, prof)
	}

	wl := workload.HashmapConfig{Buckets: 256, Items: 16384, LookupsPerRead: 10, UpdatePercent: 10}
	var pt harness.Point
	var err error
	if mode == "real" {
		pt, err = harness.RunHashmapReal(algo, threads, p, wl, millis*1_000_000, seed, sinks...)
	} else {
		pt, err = harness.RunHashmapPoint(harness.HashmapPointConfig{
			Algo: algo, Threads: threads, Profile: p,
			Workload: wl, Horizon: horizon, Seed: seed, Sinks: sinks,
		})
	}
	if err != nil {
		return err
	}
	fmt.Println(pt)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := tr.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %d bytes to %s\n", n, path)
	if prof != nil {
		fmt.Print(prof.String())
	}
	return nil
}

// runCompare regression-diffs two -json report files and exits non-zero on
// any throughput regression beyond the threshold, or on a point missing from
// an experiment the new file contains.
func runCompare(oldPath, newPath, thresholdSpec string) error {
	th, err := parseThreshold(thresholdSpec)
	if err != nil {
		return err
	}
	readReports := func(path string) ([]*harness.Report, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		reports, err := harness.ReadJSON(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return reports, nil
	}
	oldReports, err := readReports(oldPath)
	if err != nil {
		return err
	}
	newReports, err := readReports(newPath)
	if err != nil {
		return err
	}
	cmp := harness.CompareReports(oldReports, newReports, th)
	cmp.Format(os.Stdout)
	if !cmp.OK() {
		return fmt.Errorf("%d point(s) regressed beyond %.1f%%, %d point(s) missing (%s -> %s)", len(cmp.Regressions), 100*th, len(cmp.Missing), oldPath, newPath)
	}
	return nil
}

// parseThreshold accepts "5%", "5", or "0.05"-style fractions below 1.
func parseThreshold(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad -threshold %q: %w", s, err)
	}
	if pct || v >= 1 {
		v /= 100
	}
	if v < 0 || v >= 1 {
		return 0, fmt.Errorf("bad -threshold %q: want a percentage in [0,100)", s)
	}
	return v, nil
}

func profileByName(name string) (htm.Profile, error) {
	switch name {
	case "broadwell":
		return htm.Broadwell(), nil
	case "power8":
		return htm.Power8(), nil
	default:
		return htm.Profile{}, fmt.Errorf("unknown profile %q (want broadwell or power8)", name)
	}
}
