package main

import "sort"

// latSample is the latency of every op one response frame carried:
// each op of the frame waited ns, from its request frame's send to the
// response frame's arrival.
type latSample struct {
	ns  int64
	ops int64
}

// percentile returns the exact nearest-rank num/den quantile of the op
// latencies, each sample weighted by its op count: the smallest latency
// L such that at least num/den of all ops took ≤ L. Integer ranks keep
// it exact. It sorts s in place; it returns 0 for no ops.
func percentile(s []latSample, num, den int64) int64 {
	sort.Slice(s, func(i, j int) bool { return s[i].ns < s[j].ns })
	var total int64
	for _, x := range s {
		total += x.ops
	}
	if total == 0 {
		return 0
	}
	rank := (num*total + den - 1) / den
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, x := range s {
		cum += x.ops
		if cum >= rank {
			return x.ns
		}
	}
	return s[len(s)-1].ns
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
