// Package obs is the stdlib-only telemetry layer for the solver service:
// atomic counters, fixed-bucket histograms, a registry that snapshots to a
// stable JSON shape, spans, the flight recorder, and the event log a solve
// records its steps into.
//
// The package deliberately depends on nothing but the standard library and
// knows nothing about lattices or constraints: solver events carry plain
// integers (attribute index, level handle, SCC id), so any package can
// read an event log without importing the solver's types and the solver
// can log events without allocation.
//
// Cost model: when no event log is passed and no registry is configured,
// the solver's hot path pays a single nil check per step — nothing here
// runs at all. Counters and histograms are single atomic adds, safe for unlimited
// concurrent use; Registry lookups take a read lock and are intended to be
// amortized once per solve, not once per step.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Counter is a cumulative atomic counter. The zero value is ready to use.
// All methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram over uint64 values
// (durations in microseconds, operation counts, instance sizes). Bounds are
// inclusive upper bounds in increasing order; one implicit overflow bucket
// catches everything above the last bound. Observations are single atomic
// adds; the zero value is NOT ready to use — construct with NewHistogram.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64
}

// NewHistogram builds a histogram with the given inclusive upper bounds,
// which must be strictly increasing and non-empty.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %d <= %d",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	// Linear scan: bucket lists are short (≤ ~20) and the early buckets are
	// the hot ones, so this beats binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Snapshot returns a point-in-time copy of the histogram state. Concurrent
// observations may tear slightly between buckets and the total; each
// individual value is atomically read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is the JSON shape of one histogram: parallel bounds and
// counts slices (counts has one extra trailing overflow bucket), plus the
// total observation count and value sum.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucketed counts:
// the inclusive upper bound of the bucket holding the target rank, with the
// last finite bound standing in for the overflow bucket. A bucket-upper-
// bound estimate is exactly what burn-rate and p99 gauges need — cheap and
// monotone, not interpolated.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Default bucket bounds shared by the solver's canonical metrics.
var (
	// DurationBucketsUS spans 1µs–10s for solve latency histograms.
	DurationBucketsUS = []uint64{1, 5, 10, 50, 100, 500, 1_000, 5_000,
		10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000}
	// SizeBuckets spans 1–100k for operation-count and instance-size
	// histograms.
	SizeBuckets = []uint64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000,
		2_000, 5_000, 10_000, 100_000}
)
