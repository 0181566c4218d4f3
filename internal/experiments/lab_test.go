package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coolair/internal/sim"
	"coolair/internal/weather"
)

// TestRunGridReportsEveryCellError pins the error contract of runGrid:
// when several grid cells fail, the joined error names each one, not
// just whichever a worker reported first.
func TestRunGridReportsEveryCellError(t *testing.T) {
	l := sharedLab(t)
	bad1 := weather.Newark
	bad1.Name = "bad-lat"
	bad1.Lat = 200 // fails Climate.Validate inside NewEnv
	bad2 := weather.Newark
	bad2.Name = "bad-rh"
	bad2.MeanRH = 0

	_, err := l.runGrid([]weather.Climate{bad1, bad2}, []System{BaselineSystem()}, []int{0}, l.Facebook())
	if err == nil {
		t.Fatal("runGrid with two invalid climates returned nil error")
	}
	for _, name := range []string{"bad-lat", "bad-rh"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("joined error omits cell %q: %v", name, err)
		}
	}
}

// TestModelConcurrent checks that concurrent Model calls for the same
// fidelity share one trained model (training runs exactly once) and
// that calls do not deadlock when racing with trace access.
func TestModelConcurrent(t *testing.T) {
	l := sharedLab(t)
	const callers = 4
	got := make([]interface{}, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := l.Model(sim.SmoothSim)
			got[i], errs[i] = m, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("caller %d received a different model instance", i)
		}
	}
}

// cancelAfter is a context that cancels itself on the n-th Err poll. A
// training campaign polls Err between physics steps, so a small n
// cancels both concurrent campaigns mid-run without depending on
// timing.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	polls  atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestModelResultCancelMidCampaign cancels a cold training mid-campaign
// and requires a context.Canceled error, no campaign goroutine left
// behind, and no cached failure: the next call trains a model
// byte-identical to an uncanceled lab's.
func TestModelResultCancelMidCampaign(t *testing.T) {
	before := runtime.NumGoroutine()
	l := NewLab()
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfter{Context: inner, cancel: cancel, n: 100}
	if _, err := l.ModelResult(ctx, sim.SmoothSim); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled training returned %v, want context.Canceled", err)
	}
	// wg.Wait returns as the campaign goroutines call Done; give them a
	// moment to exit.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the canceled training, %d before", n, before)
	}

	res, err := l.ModelResult(context.Background(), sim.SmoothSim)
	if err != nil {
		t.Fatalf("training after a canceled attempt: %v", err)
	}
	want, err := sharedLab(t).Model(sim.SmoothSim)
	if err != nil {
		t.Fatal(err)
	}
	var got, ref bytes.Buffer
	if err := res.Model.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatal("model trained after a canceled attempt differs from an uncanceled lab's")
	}
}
