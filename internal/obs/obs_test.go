package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		f *FloatGauge
		h *Histogram
		r *Registry
	)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	g.SetMax(9)
	f.Set(0.5)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || f.Value() != 0 || h.N() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.FloatGauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.AddCollector(func(*Registry) { t.Fatal("collector on nil registry must not run") })
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.SetMax(3) // lower: no change
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge after SetMax = %d, want 11", got)
	}
	f := r.FloatGauge("util")
	f.Set(0.25)
	if got := f.Value(); got != 0.25 {
		t.Fatalf("float gauge = %v, want 0.25", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d, want 1000", h.N())
	}
	p50, p95, p99 := h.Percentiles()
	check := func(name string, got, want int64) {
		lo, hi := want-want/6, want+want/6 // log-bucket resolution
		if got < lo || got > hi {
			t.Errorf("%s = %d, want within [%d, %d]", name, got, lo, hi)
		}
	}
	check("p50", p50, 500)
	check("p95", p95, 950)
	check("p99", p99, 990)
	if h.Max() != 1000 {
		t.Fatalf("Max = %d, want 1000", h.Max())
	}
	if m := h.Mean(); m < 499 || m > 502 {
		t.Fatalf("Mean = %v, want ≈ 500.5", m)
	}
	// Non-positive observations clamp to 1.
	var h2 Histogram
	h2.Observe(0)
	h2.Observe(-5)
	if h2.Quantile(1) != 1 {
		t.Fatalf("clamped quantile = %d, want 1", h2.Quantile(1))
	}
}

// TestHistogramUniformPercentiles checks the exact mean and the
// percentiles of 1..1000 to within 10%, the bound the 16-sub-bucket
// layout guarantees.
func TestHistogramUniformPercentiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.N() != 0 {
		t.Error("empty histogram should return 0")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.N() != 1000 {
		t.Fatalf("n = %d", h.N())
	}
	if got, want := h.Mean(), 500.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	p50, p95, p99 := h.Percentiles()
	within := func(got, want int64, relTol float64) bool {
		return math.Abs(float64(got-want)) <= relTol*float64(want)
	}
	if !within(p50, 500, 0.10) || !within(p95, 950, 0.10) || !within(p99, 990, 0.10) {
		t.Errorf("p50/p95/p99 = %d/%d/%d, want ≈ 500/950/990", p50, p95, p99)
	}
}

// TestHistogramResolution pins the 16-sub-bucket layout with exact
// lower bounds: each octave splits into 16 equal sub-buckets, and a
// quantile reports its sub-bucket's lower bound.
func TestHistogramResolution(t *testing.T) {
	cases := []struct{ v, low int64 }{
		{1, 1}, {3, 3}, {5, 5}, {17, 17},
		{100, 100}, {101, 100},
		{1000, 992}, {1023, 992},
		{1024, 1024}, {1087, 1024}, {1088, 1088},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		if got := h.Quantile(1); got != c.low {
			t.Errorf("Observe(%d): Quantile(1) = %d, want %d", c.v, got, c.low)
		}
	}
	if n := bucketIndex(2047) - bucketIndex(1024) + 1; n != 16 {
		t.Errorf("octave [1024, 2048) spans %d buckets, want 16", n)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram should have zero count, mean and max")
	}
	p50, p95, p99 := h.Percentiles()
	if p50 != 0 || p95 != 0 || p99 != 0 {
		t.Errorf("empty percentiles = %d/%d/%d, want 0/0/0", p50, p95, p99)
	}
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(777)
	if h.N() != 1 || h.Mean() != 777 || h.Max() != 777 {
		t.Errorf("n/mean/max = %d/%v/%d", h.N(), h.Mean(), h.Max())
	}
	// Every quantile of a single observation lands in its sub-bucket:
	// the reported value is the sub-bucket's lower bound, within one
	// sub-bucket width below the observation.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		if got > 777 || float64(got) < 777*(1-1.0/histSub) {
			t.Errorf("Quantile(%v) = %d, want within one sub-bucket of 777", q, got)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Exact powers of two are octave lower bounds: the quantile of a
	// point mass there must be exact, not off by one octave.
	for _, v := range []int64{1, 2, 4, 1024, 1 << 32, 1 << 58} {
		var h Histogram
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
		if got := h.Quantile(0.5); got != v {
			t.Errorf("point mass at %d: q50 = %d", v, got)
		}
	}
	// The last value before an octave boundary stays in its octave.
	var h Histogram
	h.Observe(1023)
	if got := h.Quantile(0.5); got < 512 || got > 1023 {
		t.Errorf("1023 binned outside its octave: q50 = %d", got)
	}
}

// TestHistogramQuantileAccuracy: against exact order statistics of
// random data, the log-bucketed quantile must be within one sub-bucket
// (≈ 1/16 relative) below the exact value, never above it.
func TestHistogramQuantileAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		xs := make([]int64, 500)
		for i := range xs {
			xs[i] = rng.Int63n(1<<20) + 1
			h.Observe(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := xs[int(q*float64(len(xs)-1))]
			got := h.Quantile(q)
			if got > exact || float64(got) < float64(exact)*(1-1.0/histSub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	h.Observe(0)  // clamps to 1
	h.Observe(-5) // clamps to 1
	h.Observe(1)
	if h.N() != 3 {
		t.Errorf("n = %d, want 3", h.N())
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("q50 = %d, want 1", q)
	}
	h.Observe(1000)
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping broken")
	}
}

// TestHistogramMerge: histograms share one bucket layout, so merging
// two halves gives exactly the histogram of the whole.
func TestHistogramMerge(t *testing.T) {
	var a, b, ref Histogram
	for v := int64(1); v <= 500; v++ {
		a.Observe(v)
		ref.Observe(v)
	}
	for v := int64(501); v <= 1000; v++ {
		b.Observe(v)
		ref.Observe(v)
	}
	a.Merge(&b)
	if a.N() != ref.N() || a.Mean() != ref.Mean() || a.Max() != ref.Max() {
		t.Fatalf("merged n/mean/max = %d/%v/%d, want %d/%v/%d",
			a.N(), a.Mean(), a.Max(), ref.N(), ref.Mean(), ref.Max())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.95, 0.99, 1} {
		if a.Quantile(q) != ref.Quantile(q) {
			t.Errorf("Quantile(%v): merged %d != direct %d", q, a.Quantile(q), ref.Quantile(q))
		}
	}
	n := a.N()
	a.Merge(&Histogram{})
	if a.N() != n {
		t.Errorf("merging an empty histogram changed n: %d -> %d", n, a.N())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.N() != 8000 {
		t.Fatalf("N = %d, want 8000", h.N())
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b/count").Add(2)
	r.Counter("a/count").Add(1)
	r.Gauge("depth").Set(4)
	r.FloatGauge("util").Set(0.5)
	r.Histogram("lat").Observe(128)
	collected := 0
	r.AddCollector(func(reg *Registry) {
		collected++
		reg.Gauge("collected").Set(int64(collected))
	})

	var buf1, buf2 bytes.Buffer
	if err := r.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if collected != 2 {
		t.Fatalf("collector ran %d times, want 2", collected)
	}
	// Identical metric values → byte-identical documents, except the
	// collector-updated gauge; normalize it and compare.
	n1 := strings.ReplaceAll(buf1.String(), `"collected": 1`, `"collected": N`)
	n2 := strings.ReplaceAll(buf2.String(), `"collected": 2`, `"collected": N`)
	if n1 != n2 {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", n1, n2)
	}

	var s Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Counters["a/count"] != 1 || s.Counters["b/count"] != 2 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Histograms["lat"].Count != 1 || s.Histograms["lat"].P50 != 128 {
		t.Fatalf("histogram snapshot = %+v", s.Histograms["lat"])
	}
}
