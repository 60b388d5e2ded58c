package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("deepcat_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("deepcat_test_total"); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("deepcat_test_inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("deepcat_concurrent_total")
	h := r.Histogram("deepcat_concurrent_seconds", []float64{0.5})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got, want := h.Sum(), 0.25*workers*perWorker; got != want {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound (`le`)
// semantics: an observation exactly on a bound lands in that bound's
// bucket, one just above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("deepcat_bounds_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.1, 0.100001, 1, 5, 10, 11, -1} {
		h.Observe(v)
	}
	// Raw (non-cumulative) expectations per bucket:
	//   le=0.1  : -1, 0.1          -> 2
	//   le=1    : 0.100001, 1      -> 2
	//   le=10   : 5, 10            -> 2
	//   le=+Inf : 11               -> 1
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
}

// TestWritePrometheusGolden locks the exposition format byte-for-byte.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("deepcat_requests_total", "endpoint", "suggest", "code", "200").Add(3)
	r.Counter("deepcat_requests_total", "endpoint", "observe", "code", "200").Add(2)
	r.Gauge("deepcat_inflight").Set(1)
	h := r.Histogram("deepcat_latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE deepcat_inflight gauge
deepcat_inflight 1
# TYPE deepcat_latency_seconds histogram
deepcat_latency_seconds_bucket{le="0.1"} 1
deepcat_latency_seconds_bucket{le="1"} 2
deepcat_latency_seconds_bucket{le="+Inf"} 3
deepcat_latency_seconds_sum 2.55
deepcat_latency_seconds_count 3
# TYPE deepcat_requests_total counter
deepcat_requests_total{endpoint="observe",code="200"} 2
deepcat_requests_total{endpoint="suggest",code="200"} 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestNopRegistry verifies the no-op path a daemon without -metrics-addr
// takes: nil registry, nil instruments, no panics, no output.
func TestNopRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Dec()
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments retained state")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", b.String(), err)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("deepcat_mixed")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("deepcat_mixed")
}

// TestHistogramQuantile pins the interpolation on a small layout, then
// checks on seeded random data (spanning every bucket and the +Inf one)
// that a live histogram and its registry snapshot report the same
// quantiles, and that the live routine allocates nothing.
func TestHistogramQuantile(t *testing.T) {
	small := NewHistogram([]float64{1, 2, 4})
	if got := small.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	for _, v := range []float64{1, 1, 1.5, 1.5, 10} {
		small.Observe(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.4, 1}, {0.6, 1.5}, {0.8, 2}, {1, 4}} {
		if got := small.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	reg := NewRegistry()
	h := reg.Histogram("quantile_test_seconds", nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(math.Exp(rng.NormFloat64()*2.5 - 3))
	}
	var snap *HistogramSnapshot
	for _, ins := range reg.Snapshot().Instruments {
		if ins.Name == "quantile_test_seconds" {
			snap = ins.Histogram
		}
	}
	for _, q := range []float64{-1, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2} {
		if live, snapped := h.Quantile(q), snap.Quantile(q); live != snapped {
			t.Errorf("Quantile(%v): live %v, snapshot %v", q, live, snapped)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Quantile(0.99) }); allocs != 0 {
		t.Fatalf("Histogram.Quantile allocates %v times per call", allocs)
	}
}
