package bench

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.xs...)
		if got := Median(in); got != c.want {
			t.Errorf("Median(%v) = %g, want %g", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("Median reordered its input: %v", in)
			}
		}
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// 10000 samples: p99.9 is the 9990th value and ten lie above it.
	if v, ok := TailPercentile(ramp(10000), 99.9); !ok || v != 9990 {
		t.Fatalf("p99.9 of 10000 = %g, %v; want 9990, true", v, ok)
	}
	// 9999 samples leave only nine above it.
	if _, ok := TailPercentile(ramp(9999), 99.9); ok {
		t.Fatal("p99.9 of 9999 samples reported with nine beyond it")
	}
	if _, ok := TailPercentile(ramp(3), 90); ok {
		t.Fatal("p90 of three reps reported")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, ok := TailPercentile(ramp(100000), p); ok {
			t.Fatalf("p%g reported", p)
		}
	}
}

func TestHighestTail(t *testing.T) {
	if _, _, ok := HighestTail(ramp(3)); ok {
		t.Fatal("three reps have no tail")
	}
	if p, v, ok := HighestTail(ramp(200)); !ok || p != 90 || v != 180 {
		t.Fatalf("HighestTail(200) = p%g %g %v, want p90 180", p, v, ok)
	}
	if p, _, ok := HighestTail(ramp(1010)); !ok || p != 99 {
		t.Fatalf("HighestTail(1010) = p%g %v, want p99", p, ok)
	}
}
