package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of non-negative int64 samples (nanoseconds
// here): values below 128 are exact, larger ones fall into 128 sub-buckets per
// power of two, so a reported quantile is within 1/128 of the true sample.
// Recording touches one counter and allocates nothing; histograms of separate
// goroutines or windows merge by adding counters.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    float64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns the values bucket i covers, [lo, lo+width).
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	shift := uint(i/histSub - 1)
	return int64(histSub+i%histSub) << shift, int64(1) << shift
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the sample of rank ceil(q*n), taken to lie within its
// bucket in proportion to its rank among the bucket's samples; 0 when the
// histogram is empty.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return h.max
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+uint64(c) >= rank {
			lo, width := histBounds(i)
			return min(lo+int64(float64(width)*(float64(rank-seen)-0.5)/float64(c)), h.max)
		}
		seen += uint64(c)
	}
	return h.max
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// tailQuantile is the highest of the given quantiles (ascending) that still
// has at least ten samples beyond it, so a reported tail is never one outlier.
func (h *hist) tailQuantile(qs ...float64) float64 {
	best := qs[0]
	for _, q := range qs {
		if float64(h.n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}
