package coolair_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"coolair"
	"coolair/internal/experiments"
)

const goldenModelPath = "testdata/golden_model_sha256.txt"

// trainedModelBytes cold-trains both fidelities' Cooling Models on a
// fresh NewLab (seed 42) with GOMAXPROCS set to procs, and returns each
// model's Save output in fidelity order.
func trainedModelBytes(t *testing.T, procs int) [][]byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	l := experiments.NewLab()
	var out [][]byte
	for _, fid := range []coolair.Fidelity{coolair.RealSim, coolair.SmoothSim} {
		m, err := l.Model(fid)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestTrainedModelBytes pins cold training bit for bit: the models a
// fresh lab trains must serialize to the same bytes whether the fits run
// on one processor or on four, and (on amd64) to the SHA-256 recorded in
// testdata. Training fans its fits out over GOMAXPROCS workers, so this
// is the check that the result does not depend on scheduling.
func TestTrainedModelBytes(t *testing.T) {
	serial := trainedModelBytes(t, 1)
	parallel := trainedModelBytes(t, 4)
	var lines []string
	for i, fid := range []coolair.Fidelity{coolair.RealSim, coolair.SmoothSim} {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("%s: model trained under GOMAXPROCS(1) and GOMAXPROCS(4) differ", fid)
		}
		sum := sha256.Sum256(serial[i])
		lines = append(lines, fmt.Sprintf("%s %s", fid, hex.EncodeToString(sum[:])))
	}
	got := strings.Join(lines, "\n")

	if *updateGolden {
		if err := os.WriteFile(goldenModelPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden model hashes updated:\n%s", got)
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden model hashes are recorded on amd64; got %s (GOMAXPROCS identity still verified)", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatalf("missing golden model hashes (run with -update to record): %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("trained models diverged from the golden hashes:\n  want\n%s\n  got\n%s\n"+
			"training must stay byte-identical; if a deliberate model change is intended, "+
			"rerun with -update and justify it in the commit", strings.TrimSpace(string(want)), got)
	}
}
