package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2, 8}, 4},
		{[]float64{1, 1, 1}, 1},
		{[]float64{3}, 3},
		{[]float64{-1, 0}, 0},      // non-positive skipped
		{[]float64{-1, 4, 16}, 8},  // negatives skipped
		{[]float64{10, 1000}, 100}, // two decades
	}
	for _, c := range cases {
		if got := Geomean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v, want 10", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v, want 50", got)
	}
	if got := Percentile(xs, 50); got != 30 {
		t.Errorf("P50 = %v, want 30", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("P25 = %v, want 20", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("P50(nil) = %v, want 0", got)
	}
	// Input must not be reordered.
	if xs[0] != 10 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("P50 of {0,10} = %v, want 5", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 1000, 100)
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	if got := h.Mean(); math.Abs(got-499.5) > 1e-9 {
		t.Errorf("Mean = %v, want 499.5", got)
	}
	med := h.Median()
	if med < 450 || med > 550 {
		t.Errorf("Median = %d, want ≈ 500", med)
	}
	q9 := h.Quantile(0.9)
	if q9 < 850 || q9 > 950 {
		t.Errorf("Q90 = %d, want ≈ 900", q9)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(100, 200, 10)
	h.Observe(-50) // underflow clamps to the first bucket
	h.Observe(500) // overflow clamps to the last bucket
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	// Out-of-range values land in the edge buckets; quantiles stay inside
	// the observed envelope and remain monotone.
	q0, q1 := h.Quantile(0), h.Quantile(1)
	if q0 < -50 || q1 > 500 || q0 > q1 {
		t.Errorf("quantiles Q0=%d Q1=%d outside observed envelope [-50, 500]", q0, q1)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.sum != 0 {
		t.Error("Reset did not clear counts")
	}
	if h.Median() != 0 {
		t.Error("Median of empty histogram should be 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 10, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: histogram quantiles are monotone in q and bounded by min/max.
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(-40000, 40000, 64)
		for _, v := range vals {
			h.Observe(int64(v))
		}
		prev := h.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEMACooling(t *testing.T) {
	// Reproduces the Fig. 3a scenario: 50 accesses/min for 10 minutes, then
	// silence; cooling halves the score every 2 minutes.
	const minute = int64(60_000_000_000)
	var e EMA
	for m := int64(0); m < 10; m++ {
		for i := 0; i < 50; i++ {
			e.Add(m * minute)
		}
	}
	peak := e.Score(10 * minute)
	if peak < 50 || peak > 500 {
		t.Fatalf("peak score = %v, want within (50, 500)", peak)
	}
	// After access stops, the score halves every 2 minutes: it lags.
	s12 := e.Score(12 * minute)
	s14 := e.Score(14 * minute)
	if !(s12 < peak && s14 < s12) {
		t.Errorf("score must decay: peak=%v s12=%v s14=%v", peak, s12, s14)
	}
	if math.Abs(s14-s12/2) > 1e-9 {
		t.Errorf("one cooling period should halve: s12=%v s14=%v", s12, s14)
	}
	// The score takes several periods to fall below 10 — the lag the paper
	// demonstrates.
	when := int64(0)
	for m := int64(10); m < 40; m++ {
		if e.Score(m*minute) < 10 {
			when = m
			break
		}
	}
	if when <= 12 {
		t.Errorf("EMA score dropped below 10 at minute %d; expected lag beyond minute 12", when)
	}
}

func TestEMALongGap(t *testing.T) {
	var e EMA
	for i := 0; i < 1000; i++ {
		e.Add(0)
	}
	if s := e.Score(200 * emaPeriodNs); s != 0 {
		t.Errorf("score after 200 periods = %v, want 0", s)
	}
}

func TestTimeSeriesWindows(t *testing.T) {
	ts := NewTimeSeries(100, 0, 1000, 100)
	// Two windows: values 10 in [0,100), value 50 in [100,200).
	ts.Observe(0, 10)
	ts.Observe(50, 10)
	ts.Observe(120, 50)
	ts.Observe(180, 50)
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Time != 0 || pts[0].Count != 2 {
		t.Errorf("window 0 = %+v", pts[0])
	}
	if pts[1].Time != 100 || pts[1].Count != 2 {
		t.Errorf("window 1 = %+v", pts[1])
	}
	if pts[0].Median >= pts[1].Median {
		t.Errorf("window medians should rise: %d vs %d", pts[0].Median, pts[1].Median)
	}
}

func TestTimeSeriesGap(t *testing.T) {
	ts := NewTimeSeries(10, 0, 100, 10)
	ts.Observe(0, 1)
	ts.Observe(95, 2) // long gap: empty windows are skipped, not emitted
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (empty windows skipped)", len(pts))
	}
}

func TestSteadyState(t *testing.T) {
	var pts []SeriesPoint
	for i := 1; i <= 12; i++ {
		pts = append(pts, SeriesPoint{Mean: float64(i)})
	}
	if got := meanSteadyState(pts); got != 7.5 {
		t.Errorf("meanSteadyState = %v, want 7.5 (the last 10 windows)", got)
	}
	if got := meanSteadyState(pts[:4]); got != 2.5 {
		t.Errorf("meanSteadyState clamps to the series: got %v, want 2.5", got)
	}
	if got := meanSteadyState(nil); got != 0 {
		t.Errorf("meanSteadyState(nil) = %v, want 0", got)
	}
}

func TestAdaptTime(t *testing.T) {
	// Series: disturbance at t=100 raises means, converges at t=400.
	pts := []SeriesPoint{
		{Time: 0, Mean: 100},
		{Time: 100, Mean: 300},
		{Time: 200, Mean: 250},
		{Time: 300, Mean: 150},
		{Time: 400, Mean: 104},
		{Time: 500, Mean: 100},
		{Time: 600, Mean: 100},
	}
	got, ok := meanAdaptTime(pts, 100, 100)
	if !ok || got != 400 {
		t.Errorf("meanAdaptTime = %v, %v; want 400, true", got, ok)
	}
	// The tolerance is one-sided: an overshoot below steady on the way
	// down (t=500) is converged, where a two-sided test would wait for 600.
	dip := append([]SeriesPoint{}, pts...)
	dip[5].Mean = 60
	if got, ok := meanAdaptTime(dip, 100, 100); !ok || got != 400 {
		t.Errorf("meanAdaptTime with a dip below steady = %v, %v; want 400, true", got, ok)
	}
	// Never converging within tolerance.
	_, ok = meanAdaptTime([]SeriesPoint{{Time: 100, Mean: 300}}, 0, 100)
	if ok {
		t.Error("meanAdaptTime should not converge when the last point is off-steady")
	}
	if _, ok := meanAdaptTime(pts, 100, 0); ok {
		t.Error("meanAdaptTime with steady=0 must fail")
	}
	if _, ok := meanAdaptTime(pts, 700, 100); ok {
		t.Error("meanAdaptTime with no window at or after the disturbance must fail")
	}
	// The whole rule: a step that settles back to its level adapts once
	// the smoothing window has passed the step.
	var series []SeriesPoint
	for i := int64(0); i < 30; i++ {
		m := 100.0
		if i >= 10 && i < 12 {
			m = 400
		}
		series = append(series, SeriesPoint{Time: i * 10, Mean: m})
	}
	if got, ok := AdaptTime(series, 100); !ok || got != 150 {
		t.Errorf("AdaptTime = %v, %v; want 150, true", got, ok)
	}
}

// TestSmooth: a centered moving average over 2·adaptSmooth+1 windows whose
// window is clamped at both ends of the series (4, 5, 5, 5, 4 points wide
// over five windows), touching Mean only and never its input.
func TestSmooth(t *testing.T) {
	pts := []SeriesPoint{
		{Time: 0, Median: 7, Mean: 10, Count: 1},
		{Time: 10, Median: 7, Mean: 20, Count: 1},
		{Time: 20, Median: 7, Mean: 60, Count: 1},
		{Time: 30, Median: 7, Mean: 30, Count: 1},
		{Time: 40, Median: 7, Mean: 80, Count: 1},
	}
	orig := append([]SeriesPoint{}, pts...)
	got := smooth(pts)
	want := []float64{120.0 / 4, 200.0 / 5, 200.0 / 5, 200.0 / 5, 190.0 / 4}
	for i, p := range got {
		if math.Abs(p.Mean-want[i]) > 1e-9 {
			t.Errorf("smooth[%d].Mean = %v, want %v", i, p.Mean, want[i])
		}
		if p.Time != orig[i].Time || p.Median != 7 || p.Count != 1 {
			t.Errorf("smooth changed more than Mean at %d: %+v", i, p)
		}
	}
	if !reflect.DeepEqual(pts, orig) {
		t.Error("smooth modified its input")
	}
}

func TestCDFBuckets(t *testing.T) {
	counts := []uint8{0, 0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 14, 15, 15}
	cdf := CDFBuckets(counts)
	if cdf[6] != 1.0 {
		t.Errorf("final cumulative fraction = %v, want 1", cdf[6])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Errorf("CDF must be non-decreasing at %d: %v", i, cdf)
		}
	}
	if got := cdf[0]; math.Abs(got-2.0/14) > 1e-9 {
		t.Errorf("zero bucket = %v, want 2/14", got)
	}
	var empty [7]float64
	if CDFBuckets(nil) != empty {
		t.Error("CDFBuckets(nil) should be all-zero")
	}
}
