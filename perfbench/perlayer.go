package main

import (
	"fmt"
	"runtime"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/stats"
)

// perLayer is the traced run. It first runs the workload untraced, for
// go.allocs_per_op and the throughput that trace.overhead_share compares
// against, then builds the same stack over the tracer and runs it again,
// then runs the uncontended layer ladder. Each phase gets half of dur, so
// the traced run takes about as long as an untraced one.
func perLayer(name string, sp spec, seed uint64, warm, dur time.Duration, spansPath string) (report, error) {
	dur /= 2
	l := &layers{}
	st, _, err := setUp(sp, 1, 1, l)
	if err != nil {
		return report{}, err
	}
	plain := runPhase(st, l, seed, warm, dur)
	st, plain.workers = nil, nil

	l = &layers{traced: true}
	st, _, err = setUp(sp, 1, 1, l)
	if err != nil {
		return report{}, err
	}
	traced := runPhase(st, l, seed, warm, dur)
	if spansPath != "" {
		if err := l.tr.writeSpans(spansPath, name, seed); err != nil {
			return report{}, err
		}
	}

	ms := layerMetrics(traced, st)
	ms = append(ms,
		metric{name: "go.allocs_per_op", value: float64(plain.allocs) / float64(plain.windowOps()), unit: "count",
			note: fmt.Sprintf("untraced, %d ops", plain.windowOps())},
		metric{name: "trace.overhead_share", value: 1 - traced.throughput()/plain.throughput(), unit: "ratio",
			note: fmt.Sprintf("throughput %.0f traced vs %.0f untraced", traced.throughput(), plain.throughput())},
	)
	ms = append(ms, ladder()...)

	first := plain.first
	if first == nil {
		first = traced.first
	}
	return report{ms, plain.checked + traced.checked, plain.failed + traced.failed, first}, nil
}

// layerMetrics turns the tracer's counts and the stats pipeline's commit
// modes into per-op figures. Every count covers all ops of the traced phase,
// warm-up included, and nothing else.
func layerMetrics(p *phase, st store) []metric {
	t, snap := &p.layer, &p.commits
	ops := float64(p.ops)
	perOp := func(v float64) float64 { return v / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Owned bodies exist on lock-long only; elsewhere body runs are
	// inferred: every attempt runs the body once, and so does every
	// section that completes outside hardware.
	var bodyRuns, bodyOutNs uint64
	if _, owned := st.(*lockLong); owned {
		for _, w := range p.workers {
			k := w.(*llWorker)
			bodyRuns += k.bodyRuns
			bodyOutNs += k.bodyOutNs
		}
	} else {
		bodyRuns = t.attempts + snap.TotalOps() - snap.Commits[stats.Reader][env.ModeHTM] - snap.Commits[stats.Writer][env.ModeHTM]
	}
	self := float64(p.opNs) - float64(t.attemptNs) - float64(t.parkedNs) - float64(t.waitNs) - float64(bodyOutNs)
	share := func(k stats.Kind, m env.CommitMode) float64 {
		return ratio(float64(snap.Commits[k][m]), float64(snap.TotalCommits(k)))
	}

	ms := []metric{
		{name: "htm.attempts_per_op", value: perOp(float64(t.attempts)), unit: "count"},
		{name: "htm.commit_ratio", value: ratio(float64(t.commits), float64(t.attempts)), unit: "ratio"},
	}
	for _, c := range []env.AbortCause{env.AbortConflict, env.AbortCapacity, env.AbortExplicit, env.AbortReader} {
		ms = append(ms, metric{name: "htm.aborts_per_kop." + c.String(), value: 1000 * perOp(float64(t.aborts[c])), unit: "count"})
	}
	ms = append(ms,
		metric{name: "htm.attempt_ns_per_op", value: perOp(float64(t.attemptNs)), unit: "ns"},
		metric{name: "htm.body_ns_per_op", value: perOp(float64(t.bodyNs)), unit: "ns"},
		metric{name: "htm.overhead_ns_per_attempt", value: ratio(float64(t.attemptNs-t.bodyNs), float64(t.attempts)), unit: "ns"},
		metric{name: "htm.tx_loads_per_attempt", value: ratio(float64(t.txLoads), float64(t.attempts)), unit: "count"},
		metric{name: "htm.wasted_tx_loads_per_op", value: perOp(float64(t.wastedTxLoads)), unit: "count"},

		metric{name: "env.now_calls_per_op", value: perOp(float64(t.nows)), unit: "count"},
		metric{name: "env.loads_per_op", value: perOp(float64(t.loads)), unit: "count"},
		metric{name: "env.stores_per_op", value: perOp(float64(t.stores)), unit: "count"},
		metric{name: "env.rmw_per_op", value: perOp(float64(t.cas + t.adds)), unit: "count"},
		metric{name: "env.cas_fail_ratio", value: ratio(float64(t.casFail), float64(t.cas)), unit: "ratio"},
		metric{name: "env.yields_per_op", value: perOp(float64(t.yields)), unit: "count"},
		metric{name: "env.wait_ns_per_op", value: perOp(float64(t.waitNs)), unit: "ns"},

		metric{name: "park.parks_per_kop", value: 1000 * perOp(float64(t.parks)), unit: "count"},
		metric{name: "park.parked_ns_per_op", value: perOp(float64(t.parkedNs)), unit: "ns"},
		metric{name: "park.wakes_per_kop", value: 1000 * perOp(float64(t.wakes)), unit: "count"},

		metric{name: "core.read.htm_share", value: share(stats.Reader, env.ModeHTM), unit: "ratio"},
		metric{name: "core.read.unins_share", value: share(stats.Reader, env.ModeUninstrumented), unit: "ratio"},
		metric{name: "core.write.htm_share", value: share(stats.Writer, env.ModeHTM), unit: "ratio"},
		metric{name: "core.write.gl_share", value: share(stats.Writer, env.ModeGL), unit: "ratio"},
		metric{name: "core.self_ns_per_op", value: perOp(self), unit: "ns",
			note: "op time minus attempt, parked, wait and owned-body time"},
		metric{name: "core.body_runs_per_section", value: ratio(float64(bodyRuns), float64(snap.TotalOps())), unit: "count"},
	)
	return ms
}

// ladder times each layer alone, uncontended, on one goroutine.
func ladder() []metric {
	var ms []metric
	nsOf := map[string]float64{}
	allocsOf := map[string]float64{}
	for _, r := range ladderRungs() {
		ns, allocs := timeRung(r.fn)
		nsOf[r.name], allocsOf[r.name] = ns, allocs
		if r.minus != "" {
			ns -= nsOf[r.minus]
			allocs -= allocsOf[r.minus]
		}
		ms = append(ms,
			metric{name: "ladder." + r.name + "_ns", value: ns / float64(r.per), unit: "ns", note: r.note},
			metric{name: "ladder." + r.name + ".allocs", value: allocs / float64(r.per), unit: "count"})
	}
	return ms
}

// timeRung calls fn in batches sized to about 20 ms and returns the median
// ns per call over five batches and the allocations per call.
func timeRung(fn func()) (ns, allocs float64) {
	n := 1
	for {
		t0 := nanotime()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := nanotime() - t0; d >= int64(20*time.Millisecond) {
			break
		} else if d < int64(time.Millisecond) {
			n *= 10
		} else {
			n = int(float64(n) * 25e6 / float64(d))
		}
	}
	const batches = 5
	var per [batches]float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for b := range per {
		t0 := nanotime()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(nanotime()-t0) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return median(per[:]), float64(ms.Mallocs-mallocs) / float64(batches*n)
}
