package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metric is one measured value. Samples is the number of observations the
// value summarises; it is left out of a count that summarises none.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics maps a metric name to its value. A metric that does not apply to
// a run is absent, never zero.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, samples int) {
	m[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// tailMargin is how many samples must lie beyond a percentile above the
// median before it is reported.
const tailMargin = 10

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the middle of values, the mean of the two middle ones when
// their number is even, and NaN when there are none.
func median(values []float64) float64 {
	s := sorted(values)
	switch n := len(s); {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of values.
// It reports false when fewer than tailMargin samples lie beyond that rank:
// a tail percentile of a small sample is the value of one or two slow ops.
func percentile(values []float64, p float64) (float64, bool) {
	s := sorted(values)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 || len(s)-rank < tailMargin {
		return 0, false
	}
	return s[rank-1], true
}

// quartiles returns the three cut points Python's statistics.quantiles(values,
// n=4) gives (its default exclusive method), which is what the benchmark's
// driver computes spreads from. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] where j was clamped: the cut point is extrapolated
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 for fewer than two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// The modelled client link of ROADMAP.md's recursive-fetch bar: loopback
// hides the bandwidth half of the paper's price, this puts it back.
const (
	wanUpBitsPerS   = 10e6
	wanDownBitsPerS = 100e6
)

// wanMs is the time up and down bytes take on the modelled link.
func wanMs(upBytes, downBytes float64) float64 {
	return (upBytes*8/wanUpBitsPerS + downBytes*8/wanDownBitsPerS) * 1000
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
