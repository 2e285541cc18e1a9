package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read off fewer samples is one outlier.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
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

// percentile returns the nearest-rank p-th percentile of xs and whether
// at least minBeyond samples lie above that rank, the condition for
// reporting it.
func percentile(xs []float64, p float64) (float64, bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	rank = min(max(rank, 1), n)
	return s[rank-1], n-rank >= minBeyond
}

// highestSupported returns the highest percentile of xs that has at
// least minBeyond samples above it, with its value; false when xs is too
// small for any.
func highestSupported(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	rank := n - minBeyond
	return 100 * float64(rank) / float64(n), sorted(xs)[rank-1], true
}

// latencySummary is the median and the tail of one latency sample.
type latencySummary struct {
	n         int
	p50, tail float64
	// tailName says which tail: "p99" when the sample supports it, else
	// "max", the slowest sample.
	tailName string
	// top is the highest percentile the sample supports, with its value,
	// or "" when it supports none.
	top string
}

// summarize applies the reporting rule to a latency sample. The tail is
// p99 when at least minBeyond samples lie beyond it; a smaller sample
// reports its slowest value instead, since a lower percentile read as
// p99 would understate the tail.
func summarize(xs []float64) latencySummary {
	s := latencySummary{n: len(xs), p50: median(xs)}
	if len(xs) == 0 {
		return s
	}
	var ok bool
	if s.tail, ok = percentile(xs, 99); ok {
		s.tailName = "p99"
	} else {
		s.tail, s.tailName = sorted(xs)[len(xs)-1], "max"
	}
	if p, v, ok := highestSupported(xs); ok {
		s.top = fmt.Sprintf(" highest-supported p%.4g=%.4g", p, v)
	}
	return s
}

func (s latencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.4g %s=%.4g%s", s.n, s.p50, s.tailName, s.tail, s.top)
}
