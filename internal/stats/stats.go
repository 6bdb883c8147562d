// Package stats provides the measurement plumbing of the evaluation
// (Section 5): bucketed time series at the paper's 5-minute CloudWatch
// resolution (Fig. 5), least-squares fits for the bytes-read-per-block
// slopes (Fig. 6), small summaries, and the lock-free latency histogram
// behind the serving path's quantiles.
package stats

import (
	"fmt"
	"math"
)

// TimeSeries accumulates values into fixed-width time buckets.
type TimeSeries struct {
	BucketSec float64
	buckets   []float64
}

// NewTimeSeries creates a series with the given bucket width in seconds
// (300 for the paper's 5-minute resolution).
func NewTimeSeries(bucketSec float64) *TimeSeries {
	if bucketSec <= 0 {
		panic("stats: bucket width must be positive")
	}
	return &TimeSeries{BucketSec: bucketSec}
}

// Add accumulates v at time t (seconds).
func (ts *TimeSeries) Add(t, v float64) {
	if t < 0 {
		t = 0
	}
	i := int(t / ts.BucketSec)
	for len(ts.buckets) <= i {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[i] += v
}

// Len returns the number of buckets.
func (ts *TimeSeries) Len() int { return len(ts.buckets) }

// At returns the accumulated value of bucket i (0 beyond the end).
func (ts *TimeSeries) At(i int) float64 {
	if i < 0 || i >= len(ts.buckets) {
		return 0
	}
	return ts.buckets[i]
}

// Buckets returns a copy of the accumulated values.
func (ts *TimeSeries) Buckets() []float64 {
	return append([]float64(nil), ts.buckets...)
}

// Total returns the sum over all buckets.
func (ts *TimeSeries) Total() float64 {
	var s float64
	for _, v := range ts.buckets {
		s += v
	}
	return s
}

// Fit is a least-squares line y = Slope·x + Intercept.
type Fit struct {
	Slope, Intercept, R2 float64
}

// LeastSquares fits a line through the points; it panics on length
// mismatch and returns a zero fit for fewer than 2 points.
func LeastSquares(x, y []float64) Fit {
	if len(x) != len(y) {
		panic("stats: LeastSquares length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		return Fit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² = 1 − SSres/SStot
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range x {
		p := slope*x[i] + intercept
		ssRes += (y[i] - p) * (y[i] - p)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// Summary is min/mean/max/stddev of a sample.
type Summary struct {
	N                   int
	Min, Mean, Max, Std float64
}

// Summarize computes a Summary; zero value for empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, v := range xs {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, v := range xs {
		ss += (v - s.Mean) * (v - s.Mean)
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	return s
}

// GB formats bytes as gigabytes (decimal GB like the paper's plots).
func GB(bytes float64) float64 { return bytes / 1e9 }

// FmtGB renders bytes as a "12.3 GB" string.
func FmtGB(bytes float64) string { return fmt.Sprintf("%.2f GB", GB(bytes)) }
