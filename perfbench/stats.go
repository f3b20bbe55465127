package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// iqm is the interquartile mean: the mean of the samples between the first
// and third quartile by rank. It ignores the stalls a busy host puts in a
// few samples, like a median, but moves smoothly when samples fall into
// two modes, unlike one.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// tailPercentile is the highest whole percentile of n samples that still
// has at least minTail samples beyond its nearest rank; ok is false when
// even the median has fewer (n < 2*minTail).
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 50; p-- {
		if n-int(math.Ceil(float64(p)/100*float64(n))) >= minTail {
			return p, true
		}
	}
	return 0, false
}

// samples collects one latency series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }
