package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read from fewer samples is one outlier, not a
// percentile.
const minBeyond = 10

// tailLadder is the set of percentiles a tail is reported at, highest
// first; the first one with minBeyond samples beyond it is used.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// dist is a timing distribution as the benchmark reports it: the
// median, the highest ladder percentile with at least minBeyond
// samples beyond it, and the sample count.
type dist struct {
	N      int
	Median float64
	// TailP is the tail percentile (0 when there are too few samples
	// for any ladder percentile) and Tail its value.
	TailP float64
	Tail  float64
	// Beyond counts the samples strictly above the tail's rank.
	Beyond int
	Max    float64
}

// summarize computes a dist from unsorted samples.
func summarize(samples []float64) dist {
	d := dist{N: len(samples)}
	if d.N == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.Median = median(s)
	d.Max = s[d.N-1]
	for _, p := range tailLadder {
		rank := nearestRank(p, d.N)
		if beyond := d.N - rank; beyond >= minBeyond {
			d.TailP, d.Tail, d.Beyond = p, s[rank-1], beyond
			break
		}
	}
	return d
}

// percentile is the nearest-rank percentile of unsorted samples (0 for
// none), for per-layer figures that name their percentile.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median of sorted samples.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
