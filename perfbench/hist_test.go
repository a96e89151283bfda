package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestBucketRangeCoversBucketOf(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		lo, hi := bucketRange(bucketOf(v))
		if v < lo || (hi != 0 && v >= hi) {
			t.Errorf("v=%d: bucket %d covers [%d,%d)", v, bucketOf(v), lo, hi)
		}
		if lo >= subBuckets && float64(hi-lo)/float64(lo) > 1.0/subBuckets+1e-12 {
			t.Errorf("v=%d: bucket [%d,%d) wider than 1/%d", v, lo, hi, subBuckets)
		}
	}
}

// TestQuantileMatchesExact compares histogram quantiles with exact
// nearest-rank order statistics of the same samples.
func TestQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() uint64{
		"uniform":   func() uint64 { return 200 + rng.Uint64N(5000) },
		"lognormal": func() uint64 { return uint64(math.Exp(7 + 1.5*rng.NormFloat64())) },
		"bimodal": func() uint64 {
			if rng.IntN(100) < 3 {
				return 50_000 + rng.Uint64N(10_000)
			}
			return 900 + rng.Uint64N(200)
		},
		"small": func() uint64 { return rng.Uint64N(40) },
	}
	for name, draw := range dists {
		var h hist
		vals := make([]uint64, 100_000)
		for i := range vals {
			vals[i] = draw()
			h.record(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(vals))))
			exact := float64(vals[rank-1])
			got := h.quantile(q)
			tol := math.Max(1, exact/subBuckets)
			if math.Abs(got-exact) > tol {
				t.Errorf("%s q=%v: hist %.1f, exact %.0f (tolerance %.1f)", name, q, got, exact, tol)
			}
		}
	}
}

func TestMergeAddsCounts(t *testing.T) {
	var a, b hist
	for v := uint64(1); v <= 1000; v++ {
		a.record(v)
		b.record(v + 1000)
	}
	a.merge(&b)
	if a.n != 2000 {
		t.Fatalf("merged n = %d, want 2000", a.n)
	}
	if got := a.quantile(0.5); math.Abs(got-1000) > 1000.0/subBuckets {
		t.Fatalf("merged median = %.1f, want about 1000", got)
	}
}
