package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckQualityFlags: each out-of-range quality setting is refused
// with an error naming its flag; the defaults and the range ends the
// monitor honours pass.
func TestCheckQualityFlags(t *testing.T) {
	for _, tc := range []struct {
		slo, rate float64
		window    time.Duration
		flag      string // "" = accepted
	}{
		{0.99, 0, 10 * time.Second, ""},
		{0.5, 1, time.Millisecond, ""},
		{0, 0, time.Second, "-slo-target"},
		{1, 0, time.Second, "-slo-target"},
		{math.NaN(), 0, time.Second, "-slo-target"},
		{0.99, -0.1, time.Second, "-spot-check-rate"},
		{0.99, 1.5, time.Second, "-spot-check-rate"},
		{0.99, 0, 0, "-quality-window"},
		{0.99, 0, -time.Second, "-quality-window"},
	} {
		err := checkQualityFlags(tc.slo, tc.rate, tc.window)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("(%v, %v, %v) refused: %v", tc.slo, tc.rate, tc.window, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("(%v, %v, %v) = %v, want an error naming %s", tc.slo, tc.rate, tc.window, err, tc.flag)
		}
	}
}
