package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over 300 requests is three samples and says
// nothing about the tail.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

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

// percentile returns the nearest-rank q-quantile of an ascending slice
// and how many samples lie strictly beyond that rank. ok is false when
// fewer than minBeyond do, in which case the value must not be reported
// as that percentile.
func percentile(asc []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(asc)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return asc[rank-1], beyond, beyond >= minBeyond
}

// spread is the interquartile distance as a share of the median, the
// steadiness measure the benchmark contract gates on. It needs at least
// two values; statistics.quantiles(n=4, method="exclusive") semantics.
func spread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		// exclusive method: position k*(n+1)/4, 1-based, clamped.
		pos := float64(k*(n+1)) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
