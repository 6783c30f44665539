package clock

import (
	"testing"
	"time"
)

// TestRealClockBasics: the production clock delegates to package time.
func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("real timer Stop failed")
	}
	select {
	case <-c.After(0):
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire promptly")
	}
	if Or(nil) == nil {
		t.Fatal("Or(nil) returned nil")
	}
}
