package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read off fewer samples is one outlier.
const minBeyond = 10

// sample is a set of latencies in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted sorts the sample in place, which keeps summarising a large
// sample from allocating a copy per statistic.
func (s sample) sorted() []float64 {
	sort.Float64s(s)
	return s
}

// median is the middle value, the mean of the middle two for an even count.
func (s sample) median() float64 {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quantile is the nearest-rank q-quantile: the smallest value with at
// least a q share of the samples at or below it.
func (s sample) quantile(q float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func (s sample) max() float64 { return s.quantile(1) }

// beyond counts the samples strictly above the nearest-rank q-quantile's
// rank position.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// tailLadder is the set of tail percentiles the benchmark reports from.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// highestSupported returns the highest percentile of tailLadder, no higher
// than want, that has at least minBeyond samples beyond it in n samples.
// ok is false when not even the median is supported.
func highestSupported(n int, want float64) (q float64, ok bool) {
	for _, c := range tailLadder {
		if c <= want && beyond(n, c) >= minBeyond {
			q, ok = c, true
		}
	}
	return q, ok
}

// tail reports the want-quantile when the sample supports it, else the
// highest supported lower percentile, else the maximum. It returns the
// quantile actually used (1 for the maximum).
func (s sample) tail(want float64) (value, q float64) {
	q, ok := highestSupported(len(s), want)
	if !ok {
		return s.max(), 1
	}
	return s.quantile(q), q
}

// ratio is a share reported together with its base: the count of attempts
// it divides by. A zero base gives a zero share.
type ratio struct {
	hits, base int64
}

func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.base)
}

// put records the share under name and its base under name+"_base".
func (r ratio) put(m metrics, name string) {
	m.set(name, r.value(), "ratio")
	m.set(name+"_base", float64(r.base), "count")
}
