package main

import (
	"slices"
	"time"
)

// metric is one reported number. samples is how many observations the value
// summarises (1 for a plain count or ratio).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// metrics collects a run's numbers in print order.
type metrics []metric

func (m *metrics) add(name, unit string, value float64, samples int) {
	*m = append(*m, metric{name, unit, value, samples})
}

func (m metrics) get(name string) (metric, bool) {
	for _, x := range m {
		if x.name == name {
			return x, true
		}
	}
	return metric{}, false
}

// quantile returns the q-quantile of xs by the nearest-rank rule. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[int(q*float64(len(xs)-1)+0.5)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations is a set of timed operations.
type durations []time.Duration

func (d durations) in(unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
