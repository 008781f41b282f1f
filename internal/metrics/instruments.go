package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds. They span the range the PProx pipeline produces: enclave calls
// (tens of microseconds to a few milliseconds of public-key crypto), next-hop forwards
// (sub-millisecond on the in-memory network, milliseconds on TCP), and
// shuffle waits (up to the flush timer, hundreds of milliseconds).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use and lock-free, so counting on the request hot path does
// not perturb the latency distributions the benchmarks measure.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket latency histogram in the Prometheus style:
// cumulative `le` buckets, a `_sum`, and a `_count`. Observations are
// lock-free: a binary search over the (immutable) bounds, one atomic
// bucket increment, and a CAS loop for the floating-point sum.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value (for latencies: seconds).
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is ≥ v; everything above the last
	// bound lands in the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns cumulative bucket counts (ending with +Inf), the sum,
// and the total count, taken bucket-by-bucket (not atomic across buckets,
// which the text exposition format tolerates).
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	return cum, h.Sum(), acc
}

// CountLE returns the number of observations that landed in buckets whose
// upper bound is ≤ v — i.e. the observations provably ≤ v at histogram
// resolution. When v is an exact bucket bound the count is exact;
// otherwise v is effectively rounded DOWN to the nearest bound below it
// (callers wanting exactness should align thresholds to bucket bounds,
// see AlignBound).
func (h *Histogram) CountLE(v float64) uint64 {
	var n uint64
	for i, b := range h.bounds {
		if b > v {
			break
		}
		n += h.counts[i].Load()
	}
	if math.IsInf(v, 1) {
		n += h.counts[len(h.bounds)].Load()
	}
	return n
}

// AlignBound rounds v UP to the histogram's nearest bucket upper bound so
// CountLE(AlignBound(v)) counts exactly the observations the bucket
// layout can attribute to "≤ v". Values above every bound return +Inf
// (the implicit last bucket).
func (h *Histogram) AlignBound(v float64) float64 {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		return h.bounds[i]
	}
	return math.Inf(1)
}

// MaxBound returns the histogram's largest finite bucket bound (0 for a
// bucketless histogram). Reporters use it to stand in for +Inf where the
// wire format cannot carry infinities (the trace exporter's bound×10
// convention).
func (h *Histogram) MaxBound() float64 {
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Quantile returns the histogram-resolution upper bound on the q-th
// quantile (0 < q ≤ 1): the smallest bucket upper bound whose cumulative
// count reaches q·Count. Observations beyond the last finite bound
// resolve to +Inf; an empty histogram returns 0. The estimate matches the
// rank-⌈q·n⌉ element of the sorted observations, coarsened up to its
// bucket bound (the same convention the trace coarsening uses), which the
// fuzz test in quantile_test.go pins against a sort-based reference.
func (h *Histogram) Quantile(q float64) float64 {
	cum, _, count := h.snapshot()
	if count == 0 {
		return 0
	}
	target := q * float64(count)
	for i, c := range cum {
		if float64(c) >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// CounterVec is a family of counters sharing a name and a label set.
// Look-ups take a lock; callers on hot paths should cache the child
// returned by With at set-up time.
type CounterVec struct {
	f *family
}

// With returns (creating if needed) the child counter for the given label
// values, which must match the family's label names in number and order.
func (v *CounterVec) With(labelValues ...string) *Counter {
	child := v.f.child(labelValues, func() any { return &Counter{} })
	return child.(*Counter)
}

// FuncVec is a labeled family of sampled series: each child's value is
// read from its function at exposition time. It backs labeled gauges and
// labeled monotonic counters whose counts are owned elsewhere (e.g. a
// component's atomic event counters).
type FuncVec struct {
	f *family
}

// With installs (or replaces) the sampler for the given label values.
func (v *FuncVec) With(fn func() float64, labelValues ...string) {
	v.f.setChild(labelValues, fn)
}

// HistogramVec is a family of histograms sharing a name, bucket layout,
// and label set.
type HistogramVec struct {
	f *family
}

// With returns (creating if needed) the child histogram for the given
// label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	child := v.f.child(labelValues, func() any { return newHistogram(v.f.bounds) })
	return child.(*Histogram)
}
