package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// latBuckets is the histogram's bucket count. An observation lands in
// the bucket indexed by the bit length of its latency in microseconds —
// bucket i covers [2^(i-1), 2^i) µs, bucket 0 holds sub-microsecond —
// so 40 buckets span sub-microsecond to about six days at factor-of-two
// resolution.
const latBuckets = 40

// LatencyHist is a log2-bucketed latency histogram, lock-free for hot
// paths: Observe is two atomic adds and never allocates. The zero value
// is ready to use.
type LatencyHist struct {
	buckets [latBuckets]atomic.Int64
}

// Observe records one latency. Negative durations count as zero; those
// past the last bucket land in it.
func (h *LatencyHist) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations.
func (h *LatencyHist) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns the q-quantile (0..1) latency as the upper edge of
// the bucket holding the nearest-rank observation, rank ⌈q·n⌉ clamped
// to [1, n] — 0 for an empty histogram. It overestimates by at most 2×
// and never underestimates: honest about tails, and the right bias for
// a hedge trigger (fire late rather than storm the backend).
func (h *LatencyHist) Quantile(q float64) time.Duration {
	var counts [latBuckets]int64
	var n int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<uint(latBuckets-1)) * time.Microsecond
}
