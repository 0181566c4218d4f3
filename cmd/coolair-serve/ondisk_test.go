package main

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

// TestSingleSiteOnDiskContract pins the single-site daemon's on-disk
// layout to what earlier releases wrote, so upgrading the binary never
// turns a warm boot into a cold one: the run-state fingerprint string,
// and the run-state and series-blob snapshots at the root of the state
// directory (not under a fleet shard). testdata/single-site-state is a
// state directory written by an earlier single-site daemon (Newark,
// Baseline, one day from day 150, checkpoints every 600 s); a daemon
// booted on a copy of it must restore both snapshots and resume the
// flight-recorder numbering.
func TestSingleSiteOnDiskContract(t *testing.T) {
	const wantFP = "v2|site=|loc=Newark|sys=Baseline|wl=facebook|days=[150]|guard=false|seed=42|train=4|faults=0|siteseed=0"

	state := t.TempDir()
	for _, name := range []string{"runstate_serve.snap", "series_serve.snap"} {
		b, err := os.ReadFile(filepath.Join("testdata", "single-site-state", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(state, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	f, err := newFleet(serveConfig{
		location: "newark", system: "baseline", workloadName: "facebook",
		days: 1, startDay: 150, stateDir: state, checkpointEvery: 600,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sites) != 1 {
		t.Fatalf("single-site daemon assembled %d sites, want 1", len(f.sites))
	}
	site := f.sites[0]
	sup := site.sup
	if got := sup.fingerprint(); got != wantFP {
		t.Fatalf("fingerprint changed:\n  got  %s\n  want %s", got, wantFP)
	}
	if got, want := sup.runReg.RunStatePath("serve"), filepath.Join(state, "runstate_serve.snap"); got != want {
		t.Errorf("run-state path = %s, want %s", got, want)
	}
	if got, want := sup.runReg.SeriesBlobPath("serve"), filepath.Join(state, "series_serve.snap"); got != want {
		t.Errorf("series-blob path = %s, want %s", got, want)
	}
	saved, err := sup.runReg.LoadRunState("serve", wantFP, "")
	if err != nil {
		t.Fatalf("fixture run state does not load under the pinned fingerprint: %v", err)
	}

	f.run(context.Background())
	if mode := serveMode(sup.mode.Load()); mode != modeComplete {
		t.Fatalf("site ended in mode %v, want complete", mode)
	}
	met := site.ring.Metrics()
	if got := met.StateRestoreSuccessTotal.Value(); got != 2 {
		t.Errorf("state_restore_success_total = %d, want 2 (run state + series)", got)
	}
	if got := met.StateRestoreFailureTotal.Value(); got != 0 {
		t.Errorf("state_restore_failure_total = %d, want 0", got)
	}
	if got := site.ring.Cursor().Decisions; got <= saved.SavedDecisions {
		t.Errorf("decision cursor %d did not continue past the restored %d", got, saved.SavedDecisions)
	}
	if _, err := os.Stat(filepath.Join(state, "sites")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("single-site daemon created a fleet shard directory (stat err %v)", err)
	}
}
