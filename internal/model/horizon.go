package model

// Horizon models predict one full optimizer period (10 minutes) ahead in
// a single regression, rather than by chaining five 2-minute steps.
// Chained lag-feature models are validated to the paper's accuracy on
// held-out *operational* data (Figure 5), but when the optimizer probes
// counterfactual regimes every period, tiny per-step biases compound
// geometrically through the lag features. The direct fit reaches the
// 10-minute accuracy the paper reports for its predictor, so the
// Cooling Optimizer scores candidates with it; the chained models remain
// for fine-grained trajectory prediction and validation.

// HorizonSteps is the number of model steps per optimizer period.
const HorizonSteps = 5

// fitHorizon learns the direct 10-minute models from the same snapshot
// log. A training window is usable when the regime is constant across
// it (the optimizer holds one command per period, so this is exactly
// the deployment distribution).
func (m *Model) fitHorizon(snaps []Snapshot, opts LearnerOptions) {
	var groups trainingGroups
	for i := 1; i+HorizonSteps < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		constant := true
		var fanSum, compSum float64
		for k := 1; k <= HorizonSteps; k++ {
			if snaps[i+k].Mode != snaps[i+1].Mode {
				constant = false
				break
			}
			fanSum += snaps[i+k].FanSpeed
			compSum += snaps[i+k].CompSpeed
		}
		if !constant {
			continue
		}
		fanAvg := fanSum / HorizonSteps
		compAvg := compSum / HorizonSteps
		groups.add(transition(prev.Mode, cur.Mode, snaps[i+1].Mode), prev, cur, snaps[i+HorizonSteps], fanAvg, compAvg)
	}
	fitGroups(&groups, opts, 7000, &m.hTemp, &m.hHum)
}
