package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the q-quantile (nearest rank) of sorted, ascending
// samples, and refuses when fewer than minBeyond samples lie beyond it:
// with fewer, the value is one outlier's position, not a property of the
// distribution.
func percentile(sorted []float64, q float64, minBeyond int) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quartileSpread is the driver's repeatability measure over runs: the
// distance between the first and third quartile (exclusive method, as
// Python's statistics.quantiles(values, n=4)) as a share of the median.
func quartileSpread(values []float64) float64 {
	s := sortedCopy(values)
	m := median(s)
	if len(s) < 2 || m == 0 {
		return 0
	}
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}
