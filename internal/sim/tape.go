package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"coolair/internal/control"
	"coolair/internal/hadoop"
	"coolair/internal/workload"
)

// ClusterPath says how a run drove its cluster.
type ClusterPath int

const (
	// ClusterLive simulated every task of the run.
	ClusterLive ClusterPath = iota
	// ClusterRecorded simulated every task and kept the cluster's
	// trajectory on a tape for later runs with the same inputs.
	ClusterRecorded
	// ClusterReplayed replayed a tape an earlier run recorded.
	ClusterReplayed
)

// String implements fmt.Stringer.
func (p ClusterPath) String() string {
	switch p {
	case ClusterRecorded:
		return "recorded"
	case ClusterReplayed:
		return "replayed"
	default:
		return "live"
	}
}

// TapeStore holds cluster tapes (see hadoop.Tape) for the runs of one
// study. A fresh cluster's trajectory depends only on its layout, the
// trace, the days, KeepAllActive and what the controller does to the
// cluster (control.ServerPolicy) — not on the climate — so the first
// run with a given key records the cluster and every later one replays
// it. A run stays live, with no tape, when it injects faults, resumes
// or checkpoints, paces against a clock, has a controller that declares
// no server policy, or starts from a cluster that is not fresh.
//
// A TapeStore is safe for concurrent use. A run that finds its key
// still being recorded runs live rather than wait.
type TapeStore struct {
	mu    sync.Mutex
	slots map[tapeKey]*tapeSlot
}

// NewTapeStore returns an empty store.
func NewTapeStore() *TapeStore { return &TapeStore{slots: map[tapeKey]*tapeSlot{}} }

// tapeKey is everything a fresh cluster's trajectory depends on.
type tapeKey struct {
	trace   *workload.Trace
	days    string
	keepAll bool
	policy  string
	layout  string
}

// tapeSlot is one key's tape: once elects the run that records it, and
// rec is published when that recording completes.
type tapeSlot struct {
	once sync.Once
	rec  atomic.Pointer[recording]
}

// recording is a finished tape plus the end-of-run value Run reads
// outside the cluster's count accessors.
type recording struct {
	tape          *hadoop.Tape
	jobsCompleted int
}

// tapeRun is one run's use of a store.
type tapeRun struct {
	store  *TapeStore
	key    tapeKey
	slot   *tapeSlot
	replay *recording // nil while recording
	done   bool
}

// open attaches the run's cluster to the store: it records the key's
// tape, replays it, or (returning nil) stays live.
func (s *TapeStore) open(env *Env, ctrl control.Controller, cfg RunConfig) *tapeRun {
	if s == nil || cfg.Faults != nil || cfg.Resume != nil || cfg.Checkpoint != nil || cfg.Clock != nil {
		return nil
	}
	sp, ok := ctrl.(control.ServerPolicy)
	if !ok {
		return nil
	}
	policy, ok := sp.ServerPolicy()
	if !ok {
		return nil
	}
	key := tapeKey{trace: cfg.Trace, days: fmt.Sprint(cfg.Days), keepAll: cfg.KeepAllActive,
		policy: policy, layout: env.Cluster.Layout()}
	s.mu.Lock()
	slot := s.slots[key]
	if slot == nil {
		slot = &tapeSlot{}
		s.slots[key] = slot
	}
	s.mu.Unlock()

	record := false
	slot.once.Do(func() { record = true })
	if record {
		if env.Cluster.Record() != nil {
			s.drop(key, slot)
			return nil
		}
		return &tapeRun{store: s, key: key, slot: slot}
	}
	rec := slot.rec.Load()
	if rec == nil || env.Cluster.Replay(rec.tape) != nil {
		return nil
	}
	return &tapeRun{store: s, key: key, slot: slot, replay: rec}
}

// drop removes an unfinished slot, so a later run records the key
// afresh.
func (s *TapeStore) drop(key tapeKey, slot *tapeSlot) {
	s.mu.Lock()
	if s.slots[key] == slot {
		delete(s.slots, key)
	}
	s.mu.Unlock()
}

// finish ends the run's tape and returns the run's metered completions:
// a recording publishes its tape with the live count, a replay returns
// the recorded count, or the replay's divergence error.
func (r *tapeRun) finish(c *hadoop.Cluster, jobsCompleted int) (int, error) {
	r.done = true
	tape, err := c.EndTape()
	if err != nil {
		return 0, err
	}
	if r.replay != nil {
		return r.replay.jobsCompleted, nil
	}
	r.slot.rec.Store(&recording{tape: tape, jobsCompleted: jobsCompleted})
	return jobsCompleted, nil
}

// close drops a recording that never finished (the run failed or was
// canceled).
func (r *tapeRun) close() {
	if !r.done && r.replay == nil {
		r.store.drop(r.key, r.slot)
	}
}

// path is how the run drove its cluster.
func (r *tapeRun) path() ClusterPath {
	switch {
	case r == nil:
		return ClusterLive
	case r.replay != nil:
		return ClusterReplayed
	default:
		return ClusterRecorded
	}
}
