package main

import "math/bits"

// subBits sets the histogram resolution: each power-of-two octave is split
// into 1<<subBits linear sub-buckets, so a bucket is at most 1/64 (1.6%) of
// its value wide and a 5% latency change moves a percentile by several
// buckets.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	// Values below subBuckets get one exact bucket each; every octave
	// above adds subBuckets more, up to 2^63.
	histBuckets = (64 - subBits + 1) * subBuckets
)

// hist is a log-linear (HDR-style) latency histogram over nanoseconds. It
// is owned by one goroutine; merge combines workers' histograms.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// bucketOf maps v to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits // octave above the exact range, from 0
	sub := int(v>>uint(exp)) - subBuckets
	return (exp+1)*subBuckets + sub
}

// bucketRange returns the half-open value range [lo, hi) of bucket i.
func bucketRange(i int) (lo, hi uint64) {
	if i < subBuckets {
		return uint64(i), uint64(i) + 1
	}
	exp := i/subBuckets - 1
	sub := uint64(i%subBuckets) + subBuckets
	return sub << uint(exp), (sub + 1) << uint(exp)
}

func (h *hist) record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) with the nearest-rank
// definition, interpolated linearly within the bucket that holds the rank:
// samples are assumed spread evenly over the bucket's range. The result is
// within one bucket width (≤1/64 relative) of the exact order statistic.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketRange(i)
			if hi-lo == 1 {
				return float64(lo)
			}
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		seen += c
	}
	return 0 // unreachable: rank <= n
}
