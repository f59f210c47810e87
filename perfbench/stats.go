package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// derive maps (seed, stream, i) to a positive 31-bit seed. Every input the
// benchmark generates comes from one of these streams, so the same --seed
// always yields the same inputs and distinct streams never share seeds.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64()>>33) | 1
}

// quantile returns the q-quantile (0 < q < 1) of xs by the exclusive
// method of Python's statistics.quantiles, the rule the benchmark's
// spreads are judged by: position q·(n+1) in the sorted sample, linearly
// interpolated between its neighbours and extrapolated from the two
// outermost values beyond either end. Every median, tail and quartile of
// the benchmark uses it. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(math.Floor(pos)), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
