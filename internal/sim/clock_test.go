package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coolair/internal/tks"
	"coolair/internal/weather"
)

// TestScaledClockPacing: after anchoring, a scaled clock holds the run
// to factor × real time, and a clock slower than the machine never
// sleeps the run further behind.
func TestScaledClockPacing(t *testing.T) {
	c := NewScaledClock(1000) // 1000 sim-seconds per wall second
	ctx := context.Background()
	start := time.Now()
	if err := c.Pace(ctx, 0); err != nil { // anchor: no sleep
		t.Fatal(err)
	}
	if err := c.Pace(ctx, 50); err != nil { // 50 sim-s → 50ms wall
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("paced 50 sim-seconds in %v, want ≥ 40ms at factor 1000", elapsed)
	}

	// Already behind schedule: Pace must return immediately.
	start = time.Now()
	if err := c.Pace(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("behind-schedule Pace slept %v", elapsed)
	}
}

// TestScaledClockCancellation: a Pace sleeping toward a far-future
// deadline unblocks with the context error.
func TestScaledClockCancellation(t *testing.T) {
	c := NewScaledClock(1)
	ctx, cancel := context.WithCancel(context.Background())
	if err := c.Pace(ctx, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Pace(ctx, 3600) }() // an hour of wall sleep
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled Pace returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pace ignored cancellation")
	}
}

// TestNonPositiveFactorClamps: NewScaledClock(0) behaves as real time
// rather than dividing by zero.
func TestNonPositiveFactorClamps(t *testing.T) {
	c := NewScaledClock(0)
	if err := c.Pace(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// Second call asks for 1ms of wall progress; it must neither panic
	// nor sleep unreasonably.
	start := time.Now()
	if err := c.Pace(context.Background(), 0.001); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("clamped clock slept too long")
	}
}

// TestRunHonorsContextCancellation: a cancelled config context stops a
// run mid-day with the context error instead of finishing the day.
func TestRunHonorsContextCancellation(t *testing.T) {
	env, err := NewEnv(weather.Newark, RealSim)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first step
	_, err = Run(env, tks.Baseline(), RunConfig{Days: []int{150}, Context: ctx})
	if err != context.Canceled {
		t.Fatalf("Run under cancelled context returned %v, want context.Canceled", err)
	}
}

// TestRunUnderClock: a very fast clock must not change results, only
// pacing; the run still completes.
func TestRunUnderClock(t *testing.T) {
	env, err := NewEnv(weather.Newark, RealSim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, tks.Baseline(), RunConfig{
		Days:  []int{150},
		Clock: NewScaledClock(1e12), // effectively max speed
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Days != 1 {
		t.Fatalf("days = %d, want 1", res.Summary.Days)
	}
}

// TestSharedScaledClockConcurrent: many runs pacing one scaled clock is
// race-safe and anchored exactly once — a site that starts later does
// not re-anchor the fleet's wall-to-sim mapping.
func TestSharedScaledClockConcurrent(t *testing.T) {
	c := NewScaledClock(10000)
	ctx := context.Background()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for s := 0.0; s < 50; s += 10 {
				if err := c.Pace(ctx, s); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkerPoolBoundsConcurrency: N gated runs over a size-2 pool
// never have more than 2 in their compute section at once, and all of
// them finish (no slot is lost).
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	pool := NewWorkerPool(2)
	ctx := context.Background()
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		gate := pool.Gate(nil)
		go func() {
			defer wg.Done()
			defer gate.Release()
			for i := 0; i < 20; i++ {
				if err := gate.Pace(ctx, float64(i)); err != nil {
					t.Error(err)
					return
				}
				cur := active.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond) // the "physics step"
				active.Add(-1)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d runs computed concurrently over a 2-slot pool", p)
	}
}

// TestGatedClockRelease: a site holding the only slot blocks the next
// site until it releases — and Release is idempotent, so a double
// release cannot mint an extra slot.
func TestGatedClockRelease(t *testing.T) {
	pool := NewWorkerPool(1)
	ctx := context.Background()
	a, b := pool.Gate(nil), pool.Gate(nil)
	if err := a.Pace(ctx, 0); err != nil { // a holds the slot
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() { got <- b.Pace(ctx, 0) }()
	select {
	case err := <-got:
		t.Fatalf("b acquired a held slot: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	a.Release()
	a.Release() // idempotent: must not add a second slot
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("b never acquired the released slot")
	}

	// b holds the one slot now; a third gate must still block (the
	// double release above must not have over-filled the pool).
	c := pool.Gate(nil)
	cctx, cancel := context.WithCancel(ctx)
	cgot := make(chan error, 1)
	go func() { cgot <- c.Pace(cctx, 0) }()
	select {
	case <-cgot:
		t.Fatal("pool over-filled by double release")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-cgot; err != context.Canceled {
		t.Fatalf("cancelled gated Pace returned %v", err)
	}
	b.Release()
}

// TestWorkerPoolSizeClamp: non-positive sizes clamp to one slot.
func TestWorkerPoolSizeClamp(t *testing.T) {
	if got := NewWorkerPool(0).Size(); got != 1 {
		t.Fatalf("Size() = %d, want 1", got)
	}
	if got := NewWorkerPool(-3).Size(); got != 1 {
		t.Fatalf("Size() = %d, want 1", got)
	}
}
