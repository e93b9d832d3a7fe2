// Package stats provides the small statistical toolkit shared by the
// simulator, the tiering policies, and the experiment harness: streaming
// histograms with percentile queries, exponential moving averages with
// periodic cooling (the freshness mechanism analyzed in §2.3.2 of the
// HybridTier paper), windowed time series, and aggregate helpers such as
// geometric means and CDF bucketing.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Geomean returns the geometric mean of xs. Non-positive values are skipped;
// an empty or all-skipped input yields 0.
func Geomean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It sorts a copy and leaves xs intact.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return percentileSorted(cp, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-bucket histogram over int64 values with saturating
// top and bottom buckets. It supports O(buckets) percentile queries, which is
// what the simulator uses for median-latency time series without retaining
// every sample.
type Histogram struct {
	min, max int64
	width    int64
	recip    uint64 // ceil(2^64/width) when the reciprocal fast path applies, else 0
	counts   []uint64
	total    uint64
	sum      int64
	// minSeen/maxSeen start at the extreme sentinels so Observe needs no
	// first-observation branch; they are only read when total > 0.
	minSeen int64
	maxSeen int64
}

// NewHistogram creates a histogram covering [min, max) with the given number
// of equal-width buckets. buckets must be > 0 and max > min.
func NewHistogram(min, max int64, buckets int) *Histogram {
	if buckets <= 0 {
		panic("stats: NewHistogram requires buckets > 0")
	}
	if max <= min {
		panic("stats: NewHistogram requires max > min")
	}
	width := (max - min + int64(buckets) - 1) / int64(buckets)
	if width == 0 {
		width = 1
	}
	h := &Histogram{
		min: min, max: max, width: width, counts: make([]uint64, buckets),
		minSeen: math.MaxInt64, maxSeen: math.MinInt64,
	}
	// Bucketing divides by width on every Observe; a runtime integer divide
	// is ~20 cycles, so precompute a fixed-point reciprocal instead. With
	// m = ceil(2^64/d), hi64((v-min)*m) == (v-min)/d exactly whenever
	// (v-min)*(m*d - 2^64) < 2^64; the residual m*d - 2^64 is < d, so
	// span*width < 2^63 is a safe (and in practice always true) gate.
	// width == 1 needs no division at all and keeps recip == 0.
	if span := uint64(max - min); width > 1 && span < (1<<63)/uint64(width) {
		h.recip = ^uint64(0)/uint64(width) + 1
	}
	return h
}

// bucket maps an in-range value to its bucket index.
func (h *Histogram) bucket(v int64) int {
	d := uint64(v - h.min)
	if h.recip != 0 {
		hi, _ := bits.Mul64(d, h.recip)
		return int(hi)
	}
	if h.width == 1 {
		return int(d)
	}
	return int(d / uint64(h.width))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.total++
	h.sum += v
	if v < h.minSeen {
		h.minSeen = v
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
	switch {
	case v < h.min:
		h.counts[0]++
	case v >= h.max:
		h.counts[len(h.counts)-1]++
	default:
		h.counts[h.bucket(v)]++
	}
}

// ObserveN records n occurrences of one value — the batched form hot loops
// use to turn n identical Observe calls into one. It is exactly equivalent
// to calling Observe(v) n times.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.total += n
	h.sum += v * int64(n)
	if v < h.minSeen {
		h.minSeen = v
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
	switch {
	case v < h.min:
		h.counts[0] += n
	case v >= h.max:
		h.counts[len(h.counts)-1] += n
	default:
		h.counts[h.bucket(v)] += n
	}
}

// Layout returns the bucket layout, so pooled histograms can be matched to
// a requested shape before reuse.
func (h *Histogram) Layout() (min, max int64, buckets int) {
	return h.min, h.max, len(h.counts)
}

// Count returns the number of observed values.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean of observed values, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an approximation of the q-th quantile (0..1) using the
// midpoint of the bucket containing the target rank.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.total-1))
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c > target {
			mid := h.min + int64(i)*h.width + h.width/2
			if mid < h.minSeen {
				mid = h.minSeen
			}
			if mid > h.maxSeen {
				mid = h.maxSeen
			}
			return mid
		}
		cum += c
	}
	return h.maxSeen
}

// Median is shorthand for Quantile(0.5).
func (h *Histogram) Median() int64 { return h.Quantile(0.5) }

// Reset clears all recorded values while keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
	h.minSeen, h.maxSeen = math.MaxInt64, math.MinInt64
}

// EMA is an exponential-moving-average access score with period-based
// cooling, the freshness mechanism used by frequency-based tiering systems
// (Memtis, HeMem): every emaPeriodNs of virtual time the score halves
// (a bit shift in kernel code). The zero value is an empty score.
type EMA struct {
	score      float64
	lastCooled int64
}

// emaPeriodNs is the EMA cooling period: Fig. 3a's two virtual minutes.
const emaPeriodNs = 2 * 60_000_000_000

// Add records one access at virtual time now, applying any cooling steps
// due since the last event first.
func (e *EMA) Add(now int64) {
	e.coolTo(now)
	e.score++
}

// Score returns the score at virtual time now, cooled as of now.
func (e *EMA) Score(now int64) float64 {
	e.coolTo(now)
	return e.score
}

func (e *EMA) coolTo(now int64) {
	if now <= e.lastCooled {
		return
	}
	steps := (now - e.lastCooled) / emaPeriodNs
	if steps <= 0 {
		return
	}
	// Cap the loop: beyond ~64 halvings the score is zero for any float64.
	if steps > 64 {
		e.score = 0
	} else {
		for i := int64(0); i < steps; i++ {
			e.score /= 2
		}
	}
	e.lastCooled += steps * emaPeriodNs
}

// TimeSeries accumulates (time, value) observations into fixed-duration
// windows and reports one aggregate per window. The experiment harness uses
// it for the "median latency over time" plots (Fig. 4, 5, 13).
type TimeSeries struct {
	window  int64
	current int64 // start of the open window
	hist    *Histogram
	points  []SeriesPoint
	lo, hi  int64
	buckets int
	started bool
}

// SeriesPoint is one aggregated window of a TimeSeries.
type SeriesPoint struct {
	Time   int64   `json:"time"` // window start, virtual ns
	Median int64   `json:"median"`
	Mean   float64 `json:"mean"`
	Count  uint64  `json:"count"`
}

// NewTimeSeries creates a series with the given window duration (virtual ns)
// and per-window histogram layout [lo, hi) with buckets buckets.
func NewTimeSeries(window, lo, hi int64, buckets int) *TimeSeries {
	if window <= 0 {
		panic("stats: NewTimeSeries requires window > 0")
	}
	return &TimeSeries{
		window:  window,
		hist:    NewHistogram(lo, hi, buckets),
		lo:      lo,
		hi:      hi,
		buckets: buckets,
	}
}

// Observe records value v at virtual time now. Times must be non-decreasing.
func (t *TimeSeries) Observe(now int64, v int64) {
	if !t.started || now >= t.current+t.window {
		t.advance(now)
	}
	t.hist.Observe(v)
}

// ObserveN records n occurrences of value v at virtual time now — exactly
// equivalent to n Observe(now, v) calls, amortizing the window bookkeeping.
// n == 0 records nothing (and does not open a window).
func (t *TimeSeries) ObserveN(now int64, v int64, n uint64) {
	if n == 0 {
		return
	}
	if !t.started || now >= t.current+t.window {
		t.advance(now)
	}
	t.hist.ObserveN(v, n)
}

// advance opens the observation's window, flushing any completed ones.
func (t *TimeSeries) advance(now int64) {
	if !t.started {
		t.current = now - now%t.window
		t.started = true
	}
	for now >= t.current+t.window {
		t.flush()
		t.current += t.window
	}
}

func (t *TimeSeries) flush() {
	if t.hist.Count() > 0 {
		t.points = append(t.points, SeriesPoint{
			Time:   t.current,
			Median: t.hist.Median(),
			Mean:   t.hist.Mean(),
			Count:  t.hist.Count(),
		})
	}
	t.hist.Reset()
}

// Points closes the open window and returns every aggregated point so far.
func (t *TimeSeries) Points() []SeriesPoint {
	if t.started && t.hist.Count() > 0 {
		t.flush()
	}
	return t.points
}

// Layout returns the window duration and per-window histogram layout, so
// pooled series can be matched to a requested shape before reuse.
func (t *TimeSeries) Layout() (window, lo, hi int64, buckets int) {
	return t.window, t.lo, t.hi, t.buckets
}

// Reset returns the series to its just-constructed state while keeping the
// (large) per-window histogram allocation. The accumulated points are
// released, not recycled: callers of Points own the returned slice.
func (t *TimeSeries) Reset() {
	t.hist.Reset()
	t.points = nil
	t.current = 0
	t.started = false
}

// Table 3's convergence rule over a window-mean series: smooth each mean
// over adaptSmooth windows on either side, take steady state as the mean
// of the last adaptSteadyWindows smoothed windows, and call the series
// adapted once every later window stays within adaptTol above it.
const (
	adaptSmooth        = 3
	adaptSteadyWindows = 10
	adaptTol           = 0.05
)

// AdaptTime returns the first window time ≥ after from which the series
// has adapted by Table 3's rule. The boolean is false when the series
// never converges. Adaptation experiments use window means because the
// mean is sensitive to the slow-tier tail a distribution shift displaces.
func AdaptTime(points []SeriesPoint, after int64) (int64, bool) {
	smoothed := smooth(points)
	return meanAdaptTime(smoothed, after, meanSteadyState(smoothed))
}

// smooth returns a copy of points whose Mean fields are replaced by a
// centered moving average over 2·adaptSmooth+1 windows, damping
// per-window noise before convergence detection.
func smooth(points []SeriesPoint) []SeriesPoint {
	out := make([]SeriesPoint, len(points))
	copy(out, points)
	for i := range points {
		lo, hi := i-adaptSmooth, i+adaptSmooth
		if lo < 0 {
			lo = 0
		}
		if hi >= len(points) {
			hi = len(points) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += points[j].Mean
		}
		out[i].Mean = sum / float64(hi-lo+1)
	}
	return out
}

// meanSteadyState returns the average of the window means of the last
// adaptSteadyWindows windows.
func meanSteadyState(points []SeriesPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	n := adaptSteadyWindows
	if n > len(points) {
		n = len(points)
	}
	sum := 0.0
	for _, p := range points[len(points)-n:] {
		sum += p.Mean
	}
	return sum / float64(n)
}

// meanAdaptTime returns the first time ≥ after at which the series' window
// mean stays within adaptTol of steady for the remainder of the series,
// mirroring Table 3's "reach within 1% of the steady-state latency". The
// boolean is false when the series never converges. The test is
// one-sided: a disturbance pushes the metric above its steady level, so a
// window is unconverged only while it remains more than adaptTol above
// steady — dips below steady are not failures.
func meanAdaptTime(points []SeriesPoint, after int64, steady float64) (int64, bool) {
	if steady <= 0 {
		return 0, false
	}
	lastBad := int64(-1)
	found := false
	for _, p := range points {
		if p.Time < after {
			continue
		}
		found = true
		if (p.Mean-steady)/steady > adaptTol {
			lastBad = p.Time
		}
	}
	if !found {
		return 0, false
	}
	for _, p := range points {
		if p.Time > lastBad && p.Time >= after {
			return p.Time, true
		}
	}
	return 0, false
}

// CDFBuckets buckets counts into the paper's Fig. 16 frequency classes:
// 0, 1-3, 4-6, 7-9, 10-12, 13-14, 15 and returns cumulative fractions.
func CDFBuckets(counts []uint8) [7]float64 {
	var raw [7]uint64
	for _, c := range counts {
		switch {
		case c == 0:
			raw[0]++
		case c <= 3:
			raw[1]++
		case c <= 6:
			raw[2]++
		case c <= 9:
			raw[3]++
		case c <= 12:
			raw[4]++
		case c <= 14:
			raw[5]++
		default:
			raw[6]++
		}
	}
	var out [7]float64
	total := float64(len(counts))
	if total == 0 {
		return out
	}
	cum := uint64(0)
	for i, r := range raw {
		cum += r
		out[i] = float64(cum) / total
	}
	return out
}

// CDFLabels returns the Fig. 16 x-axis labels matching CDFBuckets order.
func CDFLabels() [7]string {
	return [7]string{"0", "1-3", "4-6", "7-9", "10-12", "13-14", "15"}
}
