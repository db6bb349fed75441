// Package obs is jiffyd's zero-dependency observability layer: counters,
// gauges and fixed-bucket histograms cheap enough to live on the server's
// inline-execution hot path, plus a registry that renders them in the
// Prometheus text exposition format (version 0.0.4).
//
// The write-side design borrows internal/core's epoch-census idiom: every
// high-frequency metric is backed by cache-line-padded atomic cells,
// striped a power of two comfortably above the core count, and a writer
// picks its stripe with the per-P cheap random source (math/rand/v2's
// runtime-backed Uint64) — two or three nanoseconds, no shared cache line,
// no mutex, no allocation. Instrumenting a request therefore costs a
// handful of uncontended atomic adds, which is what lets the server keep
// its metrics on while staying within noise of the uninstrumented build
// (BENCH_0007 vs BENCH_0006).
//
// The read side (scrape) sums the stripes with atomic loads. A scrape is
// not a consistent cut: stripe sums race concurrent writers, so two
// counters incremented together may render one apart, and a histogram's
// _sum may trail its _count by in-flight observations. Each individual
// counter is still monotonic, bucket counts are cumulative and internally
// consistent (they are computed from one load pass), and everything
// converges when writers pause — exactly the guarantees Prometheus
// assumes. See DESIGN.md §10.
//
// All metric methods are nil-receiver safe no-ops, so a subsystem can
// carry an optional metrics struct (e.g. persist.Metrics) and call through
// it unconditionally: the unwired configuration costs one predicted
// branch per event, not a conditional at every call site.
package obs

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// numStripes is the stripe count shared by every striped metric: the
// smallest power of two >= GOMAXPROCS at package init, clamped to [4, 64].
// More stripes than cores buys nothing but scrape work; fewer invites
// cache-line ping-pong between writers.
var numStripes = func() int {
	n := 4
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}()

// stripe returns a stripe index drawn from the per-P fast random source.
// The draw is the same one internal/core's epochEnter uses: no shared
// state, so concurrent writers on different Ps never contend on the
// selector itself, and collisions on a cell are transient.
func stripe() int { return int(rand.Uint64()) & (numStripes - 1) }

// cell64 is one striped counter cell, padded to a cache line so
// neighboring stripes do not false-share.
type cell64 struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing striped counter.
type Counter struct {
	cells []cell64
	series
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.cells[stripe()].n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. Concurrent adds may or may not be included.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// icell64 is one striped signed cell, padded like cell64.
type icell64 struct {
	n atomic.Int64
	_ [56]byte
}

// UpDown is a striped gauge moved by deltas (connection counts, inflight
// requests, open sessions): Add(+1)/Add(-1) land on independent stripes,
// Value sums them. It has no Set — a value that is set rather than
// counted belongs in a Gauge.
type UpDown struct {
	cells []icell64
	series
}

// Add moves the gauge by delta (negative to decrease).
func (g *UpDown) Add(delta int64) {
	if g == nil {
		return
	}
	g.cells[stripe()].n.Add(delta)
}

// Value sums the stripes.
func (g *UpDown) Value() int64 {
	if g == nil {
		return 0
	}
	var sum int64
	for i := range g.cells {
		sum += g.cells[i].n.Load()
	}
	return sum
}

// Gauge is a last-write-wins float gauge for values sampled rather than
// counted (store statistics set by a scrape hook, configuration values).
// It is a single atomic cell: Set frequency is scrape-scale, not
// request-scale.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
	series
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the last value Set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

// histStripe is one stripe of a histogram: a count per bucket (the last
// slot is the +Inf bucket), plus the float sum of observed values, padded
// against false sharing with the neighboring stripe's first bucket.
type histStripe struct {
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	_       [56]byte
}

// Histogram is a fixed-bucket striped histogram. Buckets are cumulative
// upper bounds in the metric's unit (seconds for latencies, bytes for
// sizes); an observation lands in the first bucket whose bound it does
// not exceed, or the implicit +Inf bucket. Observe is a linear scan over
// the bounds (they are few and the branch predictor learns the
// distribution) plus two uncontended atomics — no allocation, no lock.
type Histogram struct {
	bounds  []float64
	stripes []histStripe
	series
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s := &h.stripes[stripe()]
	s.counts[i].Add(1)
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// snapshot sums the stripes: per-bucket counts (last is +Inf), total
// count and value sum. Bucket counts and the total are computed from one
// load pass, so count == Σ buckets always holds in a rendered histogram.
func (h *Histogram) snapshot() (buckets []uint64, count uint64, sum float64) {
	buckets = make([]uint64, len(h.bounds)+1)
	for i := range h.stripes {
		s := &h.stripes[i]
		for j := range s.counts {
			buckets[j] += s.counts[j].Load()
		}
		sum += bitsFloat(s.sumBits.Load())
	}
	for _, b := range buckets {
		count += b
	}
	return buckets, count, sum
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	_, count, _ := h.snapshot()
	return count
}

// ExpBuckets returns n exponential bucket bounds starting at start, each
// factor times the previous — the standard shape for latency and size
// distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets spans 1µs to ~4s: wide enough for loopback request
// handling (microseconds) and fsync stalls (milliseconds) on one scale.
var LatencyBuckets = ExpBuckets(1e-6, 2, 22)

// CountBuckets spans 1 to 512 for small cardinality distributions (group
// commit batch sizes).
var CountBuckets = ExpBuckets(1, 2, 10)
