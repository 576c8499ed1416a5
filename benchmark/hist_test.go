package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The histogram must agree with a sorted slice of the same samples to within
// 1% at every quantile the benchmark reports, across the range latencies span.
func TestHistAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	var ref []int64
	for i := 0; i < 200000; i++ {
		// Log-normal around 300 µs with a long tail, in nanoseconds.
		v := int64(math.Exp(rng.NormFloat64()*1.2 + math.Log(300e3)))
		h.record(v)
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		want := ref[int(math.Ceil(q*float64(len(ref))))-1]
		got := h.quantile(q)
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.01 {
			t.Errorf("q=%g: histogram %d, sorted slice %d (off by %.2f%%)", q, got, want, 100*rel)
		}
	}
	if h.quantile(1) != ref[len(ref)-1] {
		t.Errorf("max: histogram %d, sorted slice %d", h.quantile(1), ref[len(ref)-1])
	}
	var sum float64
	for _, v := range ref {
		sum += float64(v)
	}
	if rel := math.Abs(h.mean()-sum/float64(len(ref))) / h.mean(); rel > 1e-9 {
		t.Errorf("mean off by %g", rel)
	}
}

func TestHistBucketsAreExactBelow128AndMonotone(t *testing.T) {
	for v := int64(0); v < histSub; v++ {
		if lo, width := histBounds(histBucket(v)); lo != v || width != 1 {
			t.Fatalf("value %d falls into bucket [%d, %d)", v, lo, lo+width)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<20 + 1<<13, 1 << 40, math.MaxInt64} {
		b := histBucket(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucket of %d = %d (previous %d, limit %d)", v, b, prev, histBuckets)
		}
		if lo, width := histBounds(b); v < lo || v-lo >= width || (v >= histSub && float64(width)/float64(lo) > 1.0/histSub) {
			t.Fatalf("value %d falls into bucket [%d, %d)", v, lo, lo+width)
		}
		prev = b
	}
}

func TestHistMergeEqualsRecordingTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, both hist
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(50e6)
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		both.record(v)
	}
	a.merge(&b)
	if a.n != both.n || a.max != both.max || a.counts != both.counts {
		t.Fatal("merged windows differ from one histogram of the same samples")
	}
	if q := a.tailQuantile(0.5, 0.9, 0.99); q != 0.99 {
		t.Errorf("5000 samples support p99, got p%g", 100*q)
	}
	var few hist
	for i := 0; i < 150; i++ {
		few.record(int64(i))
	}
	if q := few.tailQuantile(0.5, 0.9, 0.99); q != 0.9 {
		t.Errorf("150 samples leave ten beyond p90 only, got p%g", 100*q)
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(123456) }); n != 0 {
		t.Errorf("record allocates %v times", n)
	}
}

func TestMedianIQR(t *testing.T) {
	m, iqr := medianIQR([]float64{5, 1, 3, 2, 4})
	if m != 3 || iqr != 2 {
		t.Errorf("median, IQR of 1..5 = %g, %g; want 3, 2", m, iqr)
	}
	if m, iqr := medianIQR(nil); m != 0 || iqr != 0 {
		t.Errorf("empty input gave %g, %g", m, iqr)
	}
}
