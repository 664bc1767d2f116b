// Package obs is the simulator-wide observability layer: atomic
// counters, gauges and log-bucketed latency histograms, grouped in a
// Registry that snapshots to a stable JSON document.
//
// Every metric type is safe for concurrent use (the flat-combining host
// structures record from many goroutines) and safe to use through a nil
// pointer: methods on a nil *Counter, *Gauge, *FloatGauge or *Histogram
// are no-ops, and a nil *Registry hands out nil metrics. Code therefore
// instruments itself unconditionally and pays a single pointer test per
// event when observability is disabled — the recording path never
// branches on a configuration flag.
//
// Metrics observe the simulation; they never feed back into it. Nothing
// in this package touches virtual time, so enabling a Registry changes
// simulated results by exactly zero (the determinism tests check this).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Calling through a nil counter is a no-op.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 through nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. SetMax turns it into a
// high-watermark (e.g. the deepest message queue seen).
type Gauge struct {
	v atomic.Int64
}

// Set stores x. Calling through a nil gauge is a no-op.
func (g *Gauge) Set(x int64) {
	if g == nil {
		return
	}
	g.v.Store(x)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to x if x is larger.
func (g *Gauge) SetMax(x int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if x <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Value returns the current value (0 through nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic float64 value, used for derived ratios such
// as per-vault utilization or partition imbalance.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores x. Calling through a nil gauge is a no-op.
func (g *FloatGauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Value returns the current value (0 through nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a lock-free log-bucketed histogram of positive int64
// observations (latencies in picoseconds, batch sizes, …): each octave
// [2^b, 2^(b+1)) is split into histSub linear sub-buckets, giving a
// worst-case relative quantile error of 1/histSub ≈ 6%. The in-octave
// arithmetic overflows from 2^59 up (about 18 years in nanoseconds), so
// larger observations land in an inexact sub-bucket.
type Histogram struct {
	counts [64 * histSub]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// histSub is the per-octave linear resolution; the simulator's latency
// tables are reported at 16.
const histSub = 16

// bucketIndex maps a positive observation to its bucket.
func bucketIndex(v int64) int {
	b := 63 - bits.LeadingZeros64(uint64(v))
	low := int64(1) << b
	s := int((v - low) * histSub / low)
	if s >= histSub {
		s = histSub - 1
	}
	return b*histSub + s
}

// bucketLow returns the lower bound of bucket index i.
func bucketLow(i int) int64 {
	b := i / histSub
	low := int64(1) << b
	return low + int64(i%histSub)*low/histSub
}

// Observe records one observation; values below 1 count as 1. Calling
// through a nil histogram is a no-op.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 1 {
		v = 1
	}
	// Raise max before the bucket so that a snapshot, which reads the
	// buckets first and max after, never counts a value above its max.
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// N returns the number of observations (0 through nil).
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.total.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.total.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the lower bound of the sub-bucket holding the
// q-quantile observation (0 when empty; q is clamped to [0, 1]).
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total-1))
	var seen uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			return bucketLow(i)
		}
	}
	return 0
}

// Percentiles returns the p50, p95 and p99 observations.
func (h *Histogram) Percentiles() (p50, p95, p99 int64) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// Merge folds o's observations into h. Both histograms share the same
// bucket layout, so merging is exact. Merge is safe to call while
// either histogram is still receiving Observe calls (all accesses are
// atomic), but a merge concurrent with recording naturally captures
// only the observations that landed before it read each bucket; merge
// quiescent sources when an exact fold matters. A nil h or o is a
// no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(o.total.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
}

// Snapshot summarizes the histogram under one consistent read: the
// bucket array is copied once and the count and quantiles are derived
// from that single copy, so a snapshot taken while recorders are
// observing can never report quantiles that disagree with its own
// count (the per-method accessors each re-read shared state and can).
// The copied buckets ride along in the snapshot (outside its JSON
// form) so two snapshots of the same histogram can be subtracted into
// an interval delta with exact per-bucket counts; see
// HistogramSnapshot.Sub.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	counts := make([]uint64, 64*histSub)
	var total uint64
	// Observe increments the bucket before the total, so a full bucket
	// scan sees at least every observation a prior total read covers;
	// it raises max before the bucket, so the max read after the scan
	// is at least every value the scan counted.
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	snap := HistogramSnapshot{
		Count:   total,
		Max:     h.max.Load(),
		Sum:     h.sum.Load(),
		Buckets: counts,
	}
	if total == 0 {
		return snap
	}
	snap.Mean = float64(snap.Sum) / float64(total)
	snap.P50 = quantileFromBuckets(counts, total, 0.50)
	snap.P95 = quantileFromBuckets(counts, total, 0.95)
	snap.P99 = quantileFromBuckets(counts, total, 0.99)
	return snap
}

// quantileFromBuckets returns the lower bound of the sub-bucket holding
// the q-quantile observation of a copied bucket array (0 when empty).
func quantileFromBuckets(counts []uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total-1))
	var seen uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			return bucketLow(i)
		}
	}
	return 0
}
