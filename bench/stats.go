package bench

import (
	"math"
	"sort"
)

// Median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even. It returns 0 for an empty slice and does
// not reorder xs.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a tail percentile before
// it is reported: a p99 read off fewer than ten worse samples is one or
// two outliers, not a tail.
const minBeyond = 10

// TailPercentile returns the nearest-rank p-th percentile of xs
// (0 < p < 100) with ok true only when at least ten samples lie above
// it.
func TailPercentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	k := int(math.Ceil(p*float64(n)/100)) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minBeyond {
		return 0, false
	}
	return sorted(xs)[k], true
}

// HighestTail returns the highest of p90, p99 and p99.9 that
// TailPercentile can report for xs, with its p.
func HighestTail(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if v, ok := TailPercentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
