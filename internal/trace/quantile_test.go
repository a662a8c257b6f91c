package trace

import (
	"math"
	"testing"

	"repro/internal/prof"
	"repro/internal/sim"
)

// latencySnapshot observes each latency into one prof.Hist and returns
// the snapshot a Snapshot carries in Histograms, which /metrics
// renders as a summary with these quantiles.
func latencySnapshot(latencies []sim.Time) prof.HistSnapshot {
	var h prof.Hist
	for _, l := range latencies {
		h.Observe(l)
	}
	return h.Snapshot()
}

func TestQuantileEmptyHistogram(t *testing.T) {
	s := latencySnapshot(nil)
	for _, p := range []float64{0, 0.5, 0.99, 1, math.NaN()} {
		if q := s.Quantile(p); q != 0 {
			t.Fatalf("Quantile(%v) on empty histogram = %g, want 0", p, q)
		}
	}
}

func TestQuantileUniformDistribution(t *testing.T) {
	const n = 1000
	lat := make([]sim.Time, 0, n)
	for v := sim.Time(1); v <= n; v++ {
		lat = append(lat, v)
	}
	s := latencySnapshot(lat)
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.5, 500},
		{0.99, 990},
		{0.999, 999},
	}
	for _, c := range cases {
		got := s.Quantile(c.p)
		// log2 buckets bound the estimate to the bucket that holds the
		// target rank; for a uniform [1,1000] distribution every
		// estimate must land within a few percent.
		if relErr := math.Abs(got-c.want) / c.want; relErr > 0.05 {
			t.Errorf("Quantile(%v) = %g, want %g within 5%% (err %.1f%%)",
				c.p, got, c.want, 100*relErr)
		}
	}
	if s.Quantile(-3) != s.Quantile(0) || s.Quantile(7) != s.Quantile(1) {
		t.Error("out-of-range p must clamp to Quantile(0) and Quantile(1)")
	}
}

func TestQuantileMonotonic(t *testing.T) {
	s := latencySnapshot([]sim.Time{0, 1, 3, 8, 8, 8, 120, 4096, 1 << 20})
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := s.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v)=%g < previous %g", p, q, prev)
		}
		prev = q
	}
}
