package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

// The tail is the highest ladder percentile with at least minBeyond
// samples beyond it, and the sample count goes with it.
func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		tailP  float64
		tail   float64
		beyond int
	}{
		{n: 19, tailP: 0},                           // even the median has only 9 beyond
		{n: 20, tailP: 50, tail: 10, beyond: 10},    // median is the only tail
		{n: 200, tailP: 95, tail: 190, beyond: 10},  // p99 would have 2 beyond
		{n: 999, tailP: 95, tail: 950, beyond: 49},  // p99 would have 9 beyond
		{n: 1000, tailP: 99, tail: 990, beyond: 10}, // first n with a p99
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.TailP != tc.tailP || d.Tail != tc.tail || d.Beyond != tc.beyond {
			t.Errorf("n=%d: got N=%d p%g=%g beyond %d, want p%g=%g beyond %d",
				tc.n, d.N, d.TailP, d.Tail, d.Beyond, tc.tailP, tc.tail, tc.beyond)
		}
	}
}

func TestSummarizeMedianAndMax(t *testing.T) {
	d := summarize([]float64{4, 1, 3, 2})
	if d.Median != 2.5 || d.Max != 4 {
		t.Fatalf("median %g max %g, want 2.5 and 4", d.Median, d.Max)
	}
	if d := summarize(nil); d.N != 0 || d.TailP != 0 {
		t.Fatalf("empty: %+v", d)
	}
}
