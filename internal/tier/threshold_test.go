package tier

import "testing"

func TestHotThreshold(t *testing.T) {
	for _, c := range []struct {
		name   string
		hist   []int64
		lo     int
		budget int64
		want   int
	}{
		{"everything fits", []int64{9, 3, 2, 1}, 1, 10, 1},
		{"lo bounds the walk", []int64{9, 3, 2, 1}, 2, 10, 2},
		{"suffix overflows midway", []int64{0, 5, 2, 1}, 1, 3, 2},
		{"suffix exactly at budget", []int64{0, 5, 2, 1}, 1, 8, 1},
		{"top bucket alone over budget", []int64{0, 1, 1, 7}, 1, 4, 3},
		{"lo past the end", []int64{0, 1, 1, 1}, 6, 100, 3},
		{"zero budget skips empty top buckets", []int64{4, 2, 0, 0}, 0, 0, 2},
	} {
		if got := HotThreshold(c.hist, c.lo, c.budget); got != c.want {
			t.Errorf("%s: HotThreshold(%v, %d, %d) = %d, want %d", c.name, c.hist, c.lo, c.budget, got, c.want)
		}
	}
}
