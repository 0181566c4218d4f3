package sim

import (
	"context"
	"sync"
	"testing"

	"coolair/internal/tks"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// tapedBaseline runs the TKS baseline for one day on a fresh Newark
// environment attached to store.
func tapedBaseline(store *TapeStore, tr *workload.Trace, ctx context.Context) (*Result, error) {
	env, err := NewEnv(weather.Newark, RealSim)
	if err != nil {
		return nil, err
	}
	env.Tapes = store
	return Run(env, tks.Baseline(), RunConfig{Days: []int{150}, Trace: tr, KeepAllActive: true, Context: ctx})
}

// TestTapeReplayDivergence replays a tape under a changed call
// sequence — the same trace, edited in place after the recording — and
// requires the divergence error and no result.
func TestTapeReplayDivergence(t *testing.T) {
	store := NewTapeStore()
	tr := workload.Facebook(64, 3)
	rec, err := tapedBaseline(store, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	play, err := tapedBaseline(store, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ClusterPath() != ClusterRecorded || play.ClusterPath() != ClusterReplayed {
		t.Fatalf("cluster paths %v then %v, want recorded then replayed", rec.ClusterPath(), play.ClusterPath())
	}
	if rec.Digest() != play.Digest() {
		t.Fatalf("replay digest %s, recording %s", play.Digest(), rec.Digest())
	}

	tr.Jobs[len(tr.Jobs)/2].MapDur += 30
	res, err := tapedBaseline(store, tr, nil)
	if err == nil || res != nil {
		t.Fatalf("replay under a changed call sequence returned result %v, error %v", res != nil, err)
	}
}

// TestTapeFailedRecordingIsDropped cancels a recording run and requires
// the next run with the same key to record afresh rather than find a
// half-written tape.
func TestTapeFailedRecordingIsDropped(t *testing.T) {
	store := NewTapeStore()
	tr := workload.Facebook(64, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tapedBaseline(store, tr, ctx); err == nil {
		t.Fatal("canceled run succeeded")
	}
	res, err := tapedBaseline(store, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterPath() != ClusterRecorded {
		t.Fatalf("run after a canceled recording: cluster %v, want recorded", res.ClusterPath())
	}
}

// TestTapeStoreConcurrentRuns runs one key from several goroutines at
// once: one records, the others replay or (while it records) run live,
// and every result is the same. Run it under -race.
func TestTapeStoreConcurrentRuns(t *testing.T) {
	store := NewTapeStore()
	tr := workload.Facebook(64, 3)
	const runs = 4
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = tapedBaseline(store, tr, nil)
		}(i)
	}
	wg.Wait()
	recorded := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if res.ClusterPath() == ClusterRecorded {
			recorded++
		}
		if res.Digest() != results[0].Digest() {
			t.Errorf("run %d (%v) digest %s, run 0 (%v) %s", i, res.ClusterPath(), res.Digest(), results[0].ClusterPath(), results[0].Digest())
		}
	}
	if recorded != 1 {
		t.Errorf("%d runs recorded the key, want exactly 1", recorded)
	}
	res, err := tapedBaseline(store, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterPath() != ClusterReplayed {
		t.Fatalf("run after the concurrent ones: cluster %v, want replayed", res.ClusterPath())
	}
}
