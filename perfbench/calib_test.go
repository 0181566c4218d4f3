package main

import (
	"testing"
	"time"
)

func TestRefTimedScalesByHostSpeed(t *testing.T) {
	raw, scaled := refTimed(func() { time.Sleep(20 * time.Millisecond) })
	if raw < 0.02 {
		t.Errorf("raw %v s for a 20 ms sleep", raw)
	}
	if scaled <= 0 || scaled == raw {
		t.Errorf("scaled %v s from raw %v s: want a positive, host-speed-scaled time", scaled, raw)
	}
}
