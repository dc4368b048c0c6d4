package main

import (
	"math/bits"
	"sort"
)

// histSub is the number of linear sub-buckets per power of two: bucket
// width is 1/32 of its octave (~3 %), and quantile interpolates inside
// the bucket, so two runs do not read the same value by construction.
const histSub = 32

// hist is a fixed log-linear histogram of nanosecond latencies. Its
// size does not depend on the sample count, so a long run's memory is
// the program's, not the harness's.
type hist struct {
	buckets [64 * histSub]uint64
	n       uint64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1))
	shift := uint(e) - 5   // log2(histSub) = 5
	return (e-4)*histSub + int((v>>shift)&(histSub-1))
}

// histLower returns the smallest value that lands in bucket i.
func histLower(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub + 4
	return float64(uint64(1)<<uint(e) + uint64(i%histSub)<<uint(e-5))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, linearly
// interpolated by rank inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histLower(len(h.buckets) - 1)
}

// quartiles returns the first quartile, median and third quartile of
// vs by the same rule Python's statistics.quantiles(n=4) uses
// (exclusive method), which is what the acceptance pipeline applies to
// run-to-run values. Fewer than two values repeat the single value.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 3 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}
