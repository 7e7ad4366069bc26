package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// trimmedMean returns the mean of xs without its lowest and highest fifth:
// as robust as a median to a sweep a noisy host slowed, and steadier than
// one when every sweep does the same work.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 5
	return mean(s[k : len(s)-k])
}

// tailLadder is the percentile ladder job_tail_ms climbs: the reported tail
// is the highest rung that still has at least minBeyond samples beyond it.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency reading: the value at percentile P of N samples,
// with Beyond samples ranked above it.
type tail struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// nearestRank returns the 1-based nearest-rank index of percentile p in n
// samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p/100 rounding up
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOf picks the highest ladder percentile with at least minBeyond samples
// beyond it. With too few samples for any rung it falls back to the median
// and reports how few samples lie beyond, so the reading is never silent
// about its support.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	best := tail{P: tailLadder[0], N: n}
	best.Beyond = n - nearestRank(best.P, n)
	for _, p := range tailLadder {
		r := nearestRank(p, n)
		if n-r < minBeyond {
			break
		}
		best = tail{P: p, N: n, Beyond: n - r}
	}
	best.Value = s[nearestRank(best.P, n)-1]
	return best
}
