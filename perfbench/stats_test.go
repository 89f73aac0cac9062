package main

import (
	"math"
	"strings"
	"testing"
)

// minSamples is the smallest sample count percentile accepts for p.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

// A percentile is refused unless at least ten samples lie beyond it, and
// the refusal states the sample count.
func TestPercentileRule(t *testing.T) {
	if got := minSamples(0.5); got != 20 {
		t.Fatalf("p50 needs %d samples, want 20", got)
	}
	if got := minSamples(0.9); got != 100 {
		t.Fatalf("p90 needs %d samples, want 100", got)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{19, 0.5, 0}, {20, 0.5, 10}, {99, 0.9, 0}, {100, 0.9, 90}, {120, 0.9, 108},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples: got %v, want refusal", 100*tc.p, tc.n, got)
			} else if !strings.Contains(err.Error(), "over ") {
				t.Errorf("refusal %q does not state the sample count", err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples: %v, %v; want %v", 100*tc.p, tc.n, got, err, tc.want)
		}
	}
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the rule the
// steadiness report is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
		{[]float64{4, 1, 2}, 1, 2, 4},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
}
