package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// span is one timed interval of the traced run. Spans of one job share Job;
// Parent is the ID of the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Agg marks a span that stands for Calls short calls whose busy time was
	// accumulated by a shim: its length is their summed duration and its
	// position inside the parent is arbitrary (children are laid end to end
	// from the parent's start), so only its length carries information.
	Agg   bool  `json:"agg,omitempty"`
	Calls int64 `json:"calls,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// tracing-off state: every method is a no-op, so measured code paths carry
// no conditionals.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID (-1 when tracing is off).
func (r *recorder) add(name string, parent int, job string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// addAgg lays an aggregate child of busy total duration at offset ns into
// parent and returns the offset just past it.
func (r *recorder) addAgg(name string, parent int, job string, offset int64, busy time.Duration, calls int64) int64 {
	if r == nil || parent < 0 {
		return offset
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent].Start + offset
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Name: name, Job: job,
		Start: start, End: start + busy.Nanoseconds(), Agg: true, Calls: calls,
	})
	return offset + busy.Nanoseconds()
}

// all returns the spans recorded so far.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[:len(r.spans):len(r.spans)]
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time over spans sharing a name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e9
	}
	return out
}

// traceFile is the on-disk shape of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Environment map[string]string  `json:"environment"`
	Layers      map[string]float64 `json:"per_layer"`
	Spans       []span             `json:"spans"`
}

func (r *recorder) write(path string, tf traceFile) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	tf.Spans = r.spans
	r.mu.Unlock()
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median is the repository's interpolating percentile at 50: the midpoint
// of the two middle values for an even count, so a two-sample set-up
// reports neither the faster nor the slower one.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
