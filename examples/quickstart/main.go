// Quickstart: build a free-cooled datacenter, learn its Cooling Model,
// run one summer day under CoolAir All-ND, and print what the manager
// did — the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"coolair"
)

func main() {
	// 1. Assemble a Parasol-like datacenter at Newark with the smooth
	//    (fine-grained) cooling infrastructure.
	env, err := coolair.NewEnv(coolair.Newark, coolair.SmoothSim)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run the Cooling Modeler's data-collection campaign (4 days
	//    under the default controller with forced extremes) and fit the
	//    per-regime temperature/humidity/power models.
	trace := coolair.FacebookTrace(64, 1)
	if err := env.Train(4, trace, 42); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained Cooling Model: %d pods, recirculation ranking %v\n",
		env.Model.Pods(), env.Model.PodsByRecirc())

	// 3. Assemble CoolAir (the complete All-ND version) on the same
	//    plant and cluster the simulator actuates.
	ca, err := coolair.New(
		coolair.VersionOptions(coolair.VersionAllND, coolair.DefaultBandConfig()),
		env.Model, env.Forecast, env.Plant, env.Cluster)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run one mid-June day with the Facebook workload.
	res, err := coolair.Run(env, ca, coolair.RunConfig{
		Days: []int{166}, Trace: trace, RecordSeries: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Report: the band CoolAir chose, how well it held it, and what
	//    the day cost.
	band := ca.Band()
	s := res.Summary
	fmt.Printf("temperature band:    %v\n", band)
	fmt.Printf("violations >30°C:    %.2f °C average\n", s.AvgViolation)
	fmt.Printf("worst daily range:   %.1f °C (outside: %.1f °C)\n",
		s.MaxWorstDailyRange, s.MaxOutsideDailyRange)
	fmt.Printf("PUE:                 %.3f\n", s.PUE)
	fmt.Printf("jobs completed:      %d of %d submitted\n", res.JobsCompleted, res.JobsSubmitted)

	fmt.Println("\nhourly trace (outside → inlets, regime):")
	for i, p := range res.Series {
		if i%90 != 0 { // every 3 hours
			continue
		}
		fmt.Printf("  %02d:00  %5.1f°C → [%5.1f, %5.1f]°C  %v\n",
			i/30, p.OutsideTemp, p.InletMin, p.InletMax, coolair.CoolingMode(p.Mode))
	}
}
