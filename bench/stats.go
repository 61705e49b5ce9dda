package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it. It never
// interpolates, so every reported percentile is a latency some request
// actually had.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle of xs (the mean of the two middle values for an
// even count); it summarises a handful of repeated measurements such as
// set-ups or per-window tails, never raw request latencies.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailWindow is the number of consecutive samples (in due order) one tail
// window holds: at p99 twenty samples lie beyond the percentile, well over
// the ten a percentile needs to mean something.
const tailWindow = 2000

// windowedQuantile splits xs (latencies in due order) into consecutive
// windows of size samples, takes the q-quantile of each, and returns the
// median across windows plus the number of windows. A trailing partial
// window joins the previous one; fewer than size samples form one window.
// One stall therefore moves one window's tail, not the reported tail.
func windowedQuantile(xs []float64, q float64, size int) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	n := len(xs) / size
	if n == 0 {
		n = 1
	}
	tails := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		lo, hi := w*size, (w+1)*size
		if w == n-1 {
			hi = len(xs)
		}
		tails = append(tails, quantile(sortedCopy(xs[lo:hi]), q))
	}
	return median(tails), n
}

// interval is a half-open time range [Start, End) in nanoseconds.
type interval struct{ Start, End int64 }

// dur is the interval's length.
func (iv interval) dur() int64 { return iv.End - iv.Start }

// covered returns how much of parent the union of children covers:
// children are clipped to parent and overlaps between them count once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var total, end int64
	end = math.MinInt64
	for _, c := range clipped {
		switch {
		case c.Start >= end:
			total += c.dur()
			end = c.End
		case c.End > end:
			total += c.End - end
			end = c.End
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.dur() - covered(parent, children)
}
