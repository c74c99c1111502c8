package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 means the rule must refuse
	}{
		{1000, 0.99, 990},  // exactly 10 samples beyond rank 990
		{999, 0.99, 0},     // rank 990 leaves 9 beyond
		{5000, 0.99, 4950}, // 50 beyond
		{20, 0.50, 10},     // 10 beyond the median of 20
		{19, 0.50, 0},      // 9 beyond
		{1, 0.50, 0},
		{0, 0.50, 0},
	} {
		got, err := percentile(ramp(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("n=%d q=%g: got %v, want refusal", c.n, c.q, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("n=%d q=%g: got %v, %v; want %v", c.n, c.q, got, err, c.want)
		}
	}
}

func TestTailPercentileAveragesItsWindow(t *testing.T) {
	// Ranks 1970..1990 of 2000: the mean is 1980, and 10 samples lie
	// beyond the window.
	if got, err := tailPercentile(ramp(2000), 0.99); err != nil || got != 1980 {
		t.Fatalf("got %v, %v; want 1980", got, err)
	}
	if got, err := tailPercentile(ramp(1999), 0.99); err == nil {
		t.Fatalf("1999 samples leave 9 beyond the window; got %v", got)
	}
	// Two clusters with the boundary at the p99 rank: the estimate lies
	// between them instead of on either.
	xs := make([]float64, 10000)
	for i := range xs {
		if i >= 9900 {
			xs[i] = 100
		} else {
			xs[i] = 1
		}
	}
	if got, _ := tailPercentile(xs, 0.99); got <= 1 || got >= 100 {
		t.Fatalf("boundary estimate %v, want strictly between the clusters", got)
	}
}

func TestNearestRankIsExact(t *testing.T) {
	// Floating-point 0.99*1000 is 990.0000000000001; the rank must not
	// round up to 991.
	if r := nearestRank(1000, 0.99); r != 990 {
		t.Fatalf("nearestRank(1000, 0.99) = %d, want 990", r)
	}
	if r := nearestRank(1001, 0.99); r != 991 {
		t.Fatalf("nearestRank(1001, 0.99) = %d, want 991", r)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Fatal("median reordered its input")
	}
	if m := median([]float64{4, 1, 9}); m != 4 {
		t.Fatalf("median = %v, want 4", m)
	}
}
