package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// quantile is one percentile read from a sample, with the sample size
// it rests on.
type quantile struct {
	Value float64
	N     int // samples in the set
}

// percentile returns the nearest-rank q-quantile of samples (which it
// sorts in place). It refuses when fewer than minBeyond samples lie
// above the quantile's rank, so a p99 needs at least 1000 samples.
func percentile(samples []float64, q float64) (quantile, error) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return quantile{}, fmt.Errorf("percentile p%g of %d samples: undefined", q*100, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return quantile{}, fmt.Errorf("percentile p%g of %d samples leaves %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return quantile{Value: samples[rank-1], N: n}, nil
}

// samplesFor returns the smallest sample count percentile accepts for q.
func samplesFor(q float64) int {
	n := minBeyond + 1
	for n-int(math.Ceil(q*float64(n))) < minBeyond {
		n++
	}
	return n
}

// median returns the middle value of a small set of repeated
// measurements (the mean of the two middle ones for even sizes), or 0
// for an empty set. Unlike percentile it needs no tail beyond it: it
// summarises repeats of one measurement, not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// A pass's end-to-end timings come from its fastest quarter of
// batches, by scaled time (calib.go), and a pass runs at least
// minBatches batches, so that quarter is at least two. Every batch of
// a simulation workload is the same work, and every platoond-mix batch
// the same mix of requests, so the fastest quarter is the batches run
// outside whatever contention the rescaling left.
const minBatches = 8

// fastestQuarter returns the indices, in pass order, of the quarter of
// batches with the shortest wall times (rounded up, at least two, at
// most all of them).
func fastestQuarter(wall []float64) []int {
	n := (len(wall) + 3) / 4
	if n < 2 {
		n = min(2, len(wall))
	}
	idx := make([]int, len(wall))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return wall[idx[a]] < wall[idx[b]] })
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}
