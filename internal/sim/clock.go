package sim

import (
	"context"
	"sync"
	"time"
)

// Clock paces a run against wall time, turning the batch simulator into
// a live process the serve plane can watch. The run loop calls Pace
// before each physics step with the absolute simulated time it is about
// to compute; Pace blocks until wall time has caught up (or returns
// ctx's error if the run is cancelled while waiting).
//
// A nil Clock in RunConfig means no pacing: the run goes as fast as the
// machine allows, which is the batch/experiment behavior.
type Clock interface {
	Pace(ctx context.Context, simSeconds float64) error
}

// scaledClock advances simulated time at factor × real time, anchored
// at its first Pace call (so a run that starts mid-year does not sleep
// through the skipped months). The anchor is shared by every run that
// paces the same clock: fleet sites simulate the same day schedule, so
// one anchor keeps them marching in lockstep wall time instead of each
// drifting on a private anchor set by its own boot instant, and a
// restarted run catches up to the original anchor rather than
// re-anchoring. Pace is safe for concurrent use.
type scaledClock struct {
	factor float64

	mu       sync.Mutex
	anchored bool
	wall0    time.Time
	sim0     float64
}

// NewScaledClock returns a Clock advancing simulated time at factor
// real seconds per simulated second — factor 1 is real time, 3600 runs
// a simulated hour each wall second. Non-positive factors are treated
// as 1.
func NewScaledClock(factor float64) Clock {
	if factor <= 0 {
		factor = 1
	}
	return &scaledClock{factor: factor}
}

// RealTimeClock paces the simulation at wall speed.
func RealTimeClock() Clock { return NewScaledClock(1) }

func (c *scaledClock) Pace(ctx context.Context, simSeconds float64) error {
	c.mu.Lock()
	if !c.anchored {
		c.anchored = true
		c.wall0 = time.Now()
		c.sim0 = simSeconds
		c.mu.Unlock()
		return ctx.Err()
	}
	due := c.wall0.Add(time.Duration((simSeconds - c.sim0) / c.factor * float64(time.Second)))
	c.mu.Unlock()
	wait := time.Until(due)
	if wait <= 0 {
		// Behind schedule (a slow step, or a clock slower than the
		// machine): never sleep, just let the run catch up.
		return ctx.Err()
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// WorkerPool bounds how many paced runs compute a physics step at the
// same instant. A fleet daemon runs one goroutine per site, but N sites
// on a K-core machine must not all burn CPU at once: each site's run
// loop holds a pool slot while it computes and gives it back whenever
// its clock waits (or, at maximum speed, on every step), so at most
// size sites are on-CPU while every site stays live. Slot scheduling
// never changes a site's results — each site's simulation is a pure
// function of its own inputs — which the fleet shard-determinism test
// pins across pool sizes.
type WorkerPool struct {
	slots chan struct{}
}

// NewWorkerPool creates a pool with the given number of concurrent
// compute slots (values ≤ 0 mean 1).
func NewWorkerPool(size int) *WorkerPool {
	if size < 1 {
		size = 1
	}
	p := &WorkerPool{slots: make(chan struct{}, size)}
	for i := 0; i < size; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Size returns the pool's slot count.
func (p *WorkerPool) Size() int { return cap(p.slots) }

// Gate wraps inner (which may be nil for as-fast-as-possible runs) in a
// clock that shares the pool: Pace releases the caller's slot while the
// inner clock waits and re-acquires it before returning, so a sleeping
// site never pins a slot. With a nil inner clock Pace still cycles the
// slot every call, which is what interleaves N max-speed sites across
// size workers. Each Gate serves one run loop at a time; call Release
// when the run exits so a finished site cannot leak its slot.
func (p *WorkerPool) Gate(inner Clock) *GatedClock {
	return &GatedClock{pool: p, inner: inner}
}

// GatedClock is a Clock bound to a WorkerPool slot — see WorkerPool.Gate.
type GatedClock struct {
	pool  *WorkerPool
	inner Clock

	mu      sync.Mutex
	holding bool
}

// Pace implements Clock: give the slot back, wait out the inner clock
// (if any), then take a slot again before letting the run compute.
func (c *GatedClock) Pace(ctx context.Context, simSeconds float64) error {
	c.Release()
	if c.inner != nil {
		if err := c.inner.Pace(ctx, simSeconds); err != nil {
			return err
		}
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.pool.slots:
	}
	c.mu.Lock()
	c.holding = true
	c.mu.Unlock()
	return nil
}

// Release returns the held slot to the pool, if any. Idempotent; the
// supervisor calls it whenever a run attempt exits (completion, error,
// or recovered panic) so the pool never loses capacity to a dead site.
func (c *GatedClock) Release() {
	c.mu.Lock()
	holding := c.holding
	c.holding = false
	c.mu.Unlock()
	if holding {
		c.pool.slots <- struct{}{}
	}
}
