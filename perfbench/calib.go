package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// refSpeed is the reference host speed in calibration chunks per
	// second, about what the 2-vCPU virtual machine this benchmark was
	// tuned on measures: timings scaled to it read like that machine's.
	refSpeed = 1500.0
	// calibChunks is the chunks per worker in one calibration, some 100 to
	// 200 ms on that machine.
	calibChunks = 80
)

// calibSink keeps the calibration work observable to the compiler.
var calibSink float64

// calibChunk is a fixed, deterministic CPU-bound unit of work shaped like
// the simulator's inner loops: float math over a small slice, a sort and
// small-map updates. It calls no code of the program under test, so a
// change to the program never changes its cost.
func calibChunk(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, 512)
	m := map[int]float64{}
	s := 0.0
	for r := 0; r < 20; r++ {
		for i := range v {
			v[i] = rng.Float64()
			m[i%97] += math.Exp(-v[i]) * math.Sqrt(v[i]+1)
		}
		sort.Float64s(v)
		s += v[len(v)/2] + m[r%97]
	}
	return s
}

// hostSpeed runs chunks calibration chunks on each of runtime.NumCPU()
// goroutines, the parallelism of a grid pass, and returns chunks per
// second of running time (see runTime): how fast the host runs
// CPU-bound work right now.
func hostSpeed(chunks int) float64 {
	workers := runtime.NumCPU()
	sums := make([]float64, workers)
	elapsed := runTime(func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < chunks; i++ {
					sums[w] += calibChunk(int64(i))
				}
			}()
		}
		wg.Wait()
	})
	for _, s := range sums {
		calibSink += s
	}
	return float64(workers*chunks) / elapsed
}

// stealSeconds is the CPU time the hypervisor has so far withheld from
// this virtual machine, averaged over its CPUs: the steal column of
// /proc/stat, in USER_HZ (1/100 s) ticks. It is 0 where the column is
// missing or unreadable.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 / float64(runtime.NumCPU())
}

// runTime runs f and returns the seconds it took, less the time the
// hypervisor withheld the CPUs meanwhile.
func runTime(f func()) float64 {
	steal := stealSeconds()
	start := time.Now()
	f()
	return time.Since(start).Seconds() - (stealSeconds() - steal)
}

// refTimed runs f between two host-speed calibrations and returns its
// wall seconds, raw and scaled to the reference host speed. The virtual
// machine this benchmark was tuned on ran the same CPU-bound code at up
// to twice the speed at one moment as at another, as its neighbours came
// and went, both through stolen time (the hypervisor running another
// machine on our CPUs) and through slower running time (shared cores and
// caches, clock speed). The scaled time drops the stolen time and
// rescales the rest by the host speed measured around f, so that neither
// swing reaches the reported figure.
func refTimed(f func()) (raw, scaled float64) {
	before := hostSpeed(calibChunks)
	start := time.Now()
	ran := runTime(f)
	raw = time.Since(start).Seconds()
	speed := (before + hostSpeed(calibChunks)) / 2
	return raw, ran * speed / refSpeed
}
