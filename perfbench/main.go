// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object: whether every output check passed, how many
// operations it attempted and how many failed, and its metrics. With
// -trace 0 those are the end-to-end metrics, measured with no timing
// inside the hot paths; with -trace 1 they are the per-layer metrics of a
// separate traced run. Human-readable detail goes to standard error.
//
//	bash perfbench/run.sh --workload world-sweep --seed 7 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line JSON verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed; a failed output check is
// a failed operation, reported on standard error, never a crash.
type tally struct {
	attempted, failed int
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

func main() {
	workload := flag.String("workload", "", "world-sweep | nutch-deferrable | fleet-serve")
	seed := flag.Int64("seed", 1, "workload seed: traces, training campaign, world-grid offset, request order")
	seconds := flag.Float64("seconds", 20, "how long the timed phase measures")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	serveBin := flag.String("serve-bin", "", "path of a built coolair-serve binary (fleet-serve)")
	workDir := flag.String("work-dir", "", "scratch directory for daemon state (fleet-serve)")
	flag.Parse()

	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *serveBin, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(workload string, seed int64, seconds time.Duration, traced bool, serveBin, workDir string) (*result, error) {
	if seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	switch workload {
	case "world-sweep":
		return runSim(worldSweep(seed), seed, seconds, traced)
	case "nutch-deferrable":
		return runSim(nutchDeferrable(), seed, seconds, traced)
	case "fleet-serve":
		if serveBin == "" || workDir == "" {
			return nil, errors.New("fleet-serve needs -serve-bin and -work-dir")
		}
		return runServe(serveBin, workDir, seed, seconds, traced)
	}
	return nil, fmt.Errorf("unknown -workload %q (want world-sweep, nutch-deferrable or fleet-serve)", workload)
}

// selfMaxRSSMiB is this process's peak resident set size.
func selfMaxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// roundAll formats values to three significant digits for log lines.
func roundAll(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
