package stats

import (
	"testing"
	"time"
)

// TestLatencyHistQuantile pins the shared quantile rule — the upper
// edge of the bucket holding the nearest-rank (⌈q·n⌉) observation — at
// bucket edges, for empty, single-sample and many-sample histograms.
func TestLatencyHistQuantile(t *testing.T) {
	us := time.Microsecond
	many := func() []time.Duration {
		var d []time.Duration
		for i := 0; i < 50; i++ {
			d = append(d, 3*us) // bucket [2,4) µs
		}
		for i := 0; i < 49; i++ {
			d = append(d, 100*us) // bucket [64,128) µs
		}
		return append(d, 10*time.Millisecond) // bucket [8192,16384) µs
	}()
	cases := []struct {
		name string
		obs  []time.Duration
		q    float64
		want time.Duration
	}{
		{"empty p50", nil, 0.5, 0},
		{"empty p99", nil, 0.99, 0},
		{"one sub-µs", []time.Duration{500 * time.Nanosecond}, 0.5, 1 * us},
		{"one negative", []time.Duration{-time.Second}, 0.5, 1 * us},
		{"one at 1µs edge", []time.Duration{1 * us}, 0.5, 2 * us},
		{"one below 1024µs edge", []time.Duration{1023 * us}, 0.99, 1024 * us},
		{"one at 1024µs edge", []time.Duration{1024 * us}, 0, 2048 * us},
		{"one past last bucket", []time.Duration{1000 * time.Hour}, 1, (1 << 39) * us},
		{"many q=0", many, 0, 4 * us},
		{"many p50 (rank 50)", many, 0.5, 4 * us},
		{"many p51 (rank 51)", many, 0.51, 128 * us},
		{"many p99 (rank 99)", many, 0.99, 128 * us},
		{"many q=1 (rank 100)", many, 1, 16384 * us},
	}
	for _, c := range cases {
		var h LatencyHist
		for _, d := range c.obs {
			h.Observe(d)
		}
		if got := h.Count(); got != int64(len(c.obs)) {
			t.Errorf("%s: Count = %d, want %d", c.name, got, len(c.obs))
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}
