// Command coolair-sim runs one managed datacenter at one location for a
// chosen number of days and prints either a summary or a CSV time
// series.
//
//	coolair-sim -location newark -system all-nd -days 7 -csv
//	coolair-sim -location singapore -system baseline -year
//	coolair-sim -days 2 -trace run.jsonl   # flight-recorder trace for coolair-trace
package main

import (
	"flag"
	"fmt"
	"os"

	"coolair/internal/experiments"
	"coolair/internal/trace"
)

func main() {
	location := flag.String("location", "newark", "newark|chad|santiago|iceland|singapore")
	system := flag.String("system", "all-nd", "baseline|temperature|energy|variation|all-nd|all-def|energy-def")
	workloadName := flag.String("workload", "facebook", "facebook|nutch")
	days := flag.Int("days", 7, "number of consecutive days to simulate")
	startDay := flag.Int("start", 150, "first day of year (0-based)")
	year := flag.Bool("year", false, "simulate the paper's 52-day year sample instead of -days")
	csv := flag.Bool("csv", false, "print a 2-minute CSV time series")
	traceOut := flag.String("trace", "", "write a flight-recorder JSONL trace to this file")
	flag.Parse()

	cl, ok := experiments.ClimateByName(*location)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown location %q\n", *location)
		os.Exit(2)
	}
	sys, ok := experiments.SystemByName(*system)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	lab := experiments.NewLab()
	wl, ok := lab.WorkloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	runDays := experiments.RunDays(*year, *days, *startDay)

	// Size the ring to the whole run (warm-up evenings included for the
	// decision ring) so the trace keeps every record instead of the most
	// recent window.
	var ring *trace.Ring
	if *traceOut != "" {
		decisionsPerDay := 86400 / 600
		ring = trace.NewRing((len(runDays)+2)*decisionsPerDay*2, (len(runDays)+1)*720)
		lab.Recorder = ring
	}

	res, err := lab.Run(cl, sys, runDays, wl, *csv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	if ring != nil {
		if err := writeTrace(*traceOut, ring); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s\n%s", *traceOut, ring.Metrics())
	}

	s := res.Summary
	fmt.Printf("location=%s system=%s days=%d workload=%s\n", cl.Name, sys.Name, s.Days, wl.Name)
	fmt.Printf("avg violation           %8.2f °C above 30°C\n", s.AvgViolation)
	fmt.Printf("worst daily range       %8.1f °C avg (%0.1f–%0.1f)\n", s.AvgWorstDailyRange, s.MinWorstDailyRange, s.MaxWorstDailyRange)
	fmt.Printf("outside daily range     %8.1f °C avg\n", s.AvgOutsideDailyRange)
	fmt.Printf("PUE                     %8.3f (incl. 0.08 delivery)\n", s.PUE)
	fmt.Printf("energy                  %8.1f kWh IT, %0.1f kWh cooling\n", s.ITKWh, s.CoolingKWh)
	fmt.Printf("RH violations           %8.1f %% of samples above 80%%\n", 100*s.RHViolationFraction)
	fmt.Printf("jobs                    %8d submitted, %d completed\n", res.JobsSubmitted, res.JobsCompleted)
	fmt.Printf("disk power-cycles       %8.2f /hour worst server (budget 2.2)\n", res.MaxPowerCycleRate)
	fmt.Printf("disk reliability        %v\n", res.DiskReliability)

	if *csv {
		fmt.Println("\ntime_s,outside_c,inlet_min_c,inlet_max_c,disk_max_c,rh_pct,mode,fan,comp,cooling_w,it_w,util")
		for _, p := range res.Series {
			fmt.Printf("%0.0f,%0.2f,%0.2f,%0.2f,%0.2f,%0.1f,%s,%0.2f,%0.2f,%0.0f,%0.0f,%0.2f\n",
				p.Time, float64(p.Outside), float64(p.InletMin), float64(p.InletMax), float64(p.DiskMax),
				float64(p.InsideRH), p.Mode, p.FanSpeed, p.CompSpeed, float64(p.CoolingW), float64(p.ITW), p.Util)
		}
	}
}

// writeTrace drains the ring to a JSONL file.
func writeTrace(path string, ring *trace.Ring) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ring.Snapshot().WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
