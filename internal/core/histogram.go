package core

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram bucket layout, log-linear (HDR-style): values below
// 2^histSubBits ns get one exact bucket each; above that every power of
// two [2^k, 2^(k+1)) is cut into 2^histSubBits equal sub-buckets, so a
// bucket is at most 1/16 (6.25 %) as wide as its lower edge. A
// non-negative Duration has at most 63 significant bits.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) << histSubBits
)

// Histogram is a log-linear latency distribution. It is fixed-size and
// allocation-free on the record path, suitable for in-kernel analyzers,
// and its quantiles are within 6.25 % of the exact sample quantiles and
// never outside [Min, Max].
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(d time.Duration) {
	d = max(d, 0)
	h.buckets[bucketOf(uint64(d))]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	h.max = max(h.max, d)
}

// bucketOf maps a sample to its bucket. e is the sample's octave above
// the exact range (0 inside it); the next histSubBits bits below the
// leading one pick the sub-bucket.
func bucketOf(n uint64) int {
	e := bits.Len64(n >> histSubBits)
	return e<<histSubBits | int(n>>max(e-1, 0))&(histSub-1)
}

// bucketRange returns bucket i's lower edge and width in nanoseconds.
func bucketRange(i int) (lo, width uint64) {
	e, sub := i>>histSubBits, uint64(i&(histSub-1))
	if e == 0 {
		return sub, 1
	}
	return (histSub + sub) << (e - 1), 1 << (e - 1)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Min and Max return the extremes (zero when empty).
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Mean returns the average sample (zero when empty).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by nearest rank: the
// midpoint of the bucket holding the ceil(q·n)-th smallest sample,
// clamped to [Min, Max].
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(uint64(math.Ceil(q*float64(h.count))), 1)
	var seen uint64
	for i, c := range h.buckets[:] {
		if seen += c; seen >= rank {
			lo, width := bucketRange(i)
			return min(max(time.Duration(lo+width/2), h.min), h.max)
		}
	}
	return h.max
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i, c := range o.buckets[:] {
		h.buckets[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	h.max = max(h.max, o.max)
	h.count += o.count
	h.sum += o.sum
}

// String renders a compact summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%v min=%v p99=%v max=%v}",
		h.count, h.Mean(), h.min, h.Quantile(0.99), h.max)
}
