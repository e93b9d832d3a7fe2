package pebs_test

import (
	"testing"

	"repro/internal/tracker"
)

// TestConfigValidate checks the PEBS sampling configuration, which lives in
// tracker.Config (Period, and the BufferSize that sizes this package's
// Buffer): the default is valid, and a zero period or buffer is rejected
// by Validate and by tracker.New.
func TestConfigValidate(t *testing.T) {
	if err := tracker.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []tracker.Config{
		{Kind: tracker.KindPEBS, Period: 0, BufferSize: 10},
		{Kind: tracker.KindPEBS, Period: 10, BufferSize: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
		if _, err := tracker.New(c, 64, nil); err == nil {
			t.Errorf("New(%+v) built a tracker; want error", c)
		}
	}
}
