package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"testing"

	"coolair/internal/core"
	"coolair/internal/weather"
)

// TestRunGridMetamorphicDeterminism pins the lock-free cell-slot design
// of runGrid with a metamorphic relation: the worker count is a pure
// scheduling knob, so a 1-worker grid and a NumCPU-worker grid over the
// same (climate, system) cells must produce byte-identical results. A
// shared-state leak between concurrently running cells (a controller, an
// env, or a model mutated across goroutines) would break the equality.
func TestRunGridMetamorphicDeterminism(t *testing.T) {
	l := sharedLab(t)
	cls := []weather.Climate{weather.Newark, weather.Santiago, weather.Iceland}
	systems := []System{BaselineSystem(), CoolAirSystem(core.VersionAllND)}
	days := []int{150}
	wl := l.Facebook()

	prevWorkers := l.Workers
	defer func() { l.Workers = prevWorkers }()

	digest := func(workers int) string {
		t.Helper()
		l.Workers = workers
		grid, err := l.runGrid(cls, systems, days, wl)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for ci := range grid {
			for si := range grid[ci] {
				if err := enc.Encode(grid[ci][si]); err != nil {
					t.Fatalf("gob: %v", err)
				}
			}
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}

	serial := digest(1)
	parallel := digest(0) // 0 = runtime.NumCPU()
	if serial != parallel {
		t.Errorf("grid results depend on worker count:\n  workers=1:      %s\n  workers=NumCPU: %s", serial, parallel)
	}
}
