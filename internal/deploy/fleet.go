// Lockstep execution: every deployment runs K ≥ 1 executors in
// lockstep — one per sensor, each walking its own transition matrix
// with staggered starts and independent random streams derived from the
// deployment seed. A single-sensor plan is the K = 1 case. Online
// statistics are union statistics (a PoI is covered in a step when any
// sensor sits on it, which for one sensor is just its position), drift
// is scored per sensor against that sensor's matrix and
// responsibility-weighted target, and a triggered re-optimization
// warm-starts from all K window estimates and hot-swaps all K matrices
// atomically.
//
// K = 1 differs from K ≥ 2 only where a format was fixed before fleets
// existed, each in one function: the random-stream layout
// (streamSeeds), the checkpoint fields (deployment.meta and
// Runtime.loadDeployment), the View JSON (deployment.view), the
// re-optimization job (deployment.reoptSpec) and Observe, which accepts
// single-sensor telemetry only.

package deploy

import (
	"fmt"

	"repro/coverage"
	"repro/internal/jobs"
	"repro/internal/rng"
)

// sensorCount returns a plan's sensor count: the fleet size for joint
// plans, 1 otherwise.
func sensorCount(plan *coverage.Plan) int {
	if plan.Fleet != nil {
		return plan.Fleet.Sensors
	}
	return 1
}

// responsibility returns a plan's per-sensor coverage split; nil means
// the uniform 1/K split (and is all a single-sensor plan has).
func responsibility(plan *coverage.Plan) [][]float64 {
	if plan.Fleet != nil {
		return plan.Fleet.Responsibility
	}
	return nil
}

// sensorPlans splits a plan into per-executor plans: sensor s walks
// TransitionMatrices[s]; cost metadata rides along unchanged so swap
// records and views keep reporting the joint cost. A single-sensor plan
// is its own sensor-0 plan.
func sensorPlans(plan *coverage.Plan) ([]*coverage.Plan, error) {
	if plan.Fleet == nil {
		return []*coverage.Plan{plan}, nil
	}
	k := plan.Fleet.Sensors
	if len(plan.Fleet.TransitionMatrices) != k {
		return nil, fmt.Errorf("%w: fleet plan has %d matrices for %d sensors",
			ErrSpec, len(plan.Fleet.TransitionMatrices), k)
	}
	out := make([]*coverage.Plan, k)
	for s := 0; s < k; s++ {
		p := *plan
		p.TransitionMatrix = plan.Fleet.TransitionMatrices[s]
		out[s] = &p
	}
	return out, nil
}

// streamSeeds lays out a deployment's random streams from its master
// seed. One sensor draws from the master seed itself and the incident
// process from the master's first split. K ≥ 2 sensors draw from the
// first K splits in sensor order, mirroring the pre-split discipline of
// sim.SimulateFleet, and the incident process from the split after
// them. Either way every stream is independent of every other.
func streamSeeds(seed uint64, k int) (sensors []uint64, incidents uint64) {
	master := rng.New(seed)
	if k == 1 {
		return []uint64{seed}, master.Split().Uint64()
	}
	sensors = make([]uint64, k)
	for s := range sensors {
		sensors[s] = master.Split().Uint64()
	}
	return sensors, master.Split().Uint64()
}

// sensorStart is sensor s's starting PoI: the configured start for
// sensor 0, then staggered around the PoI ring exactly like
// sim.FleetConfig, so K sensors begin spread out rather than stacked.
func sensorStart(start, s, m int) int {
	return (start + s) % m
}

// recordPositions records one lockstep position vector (one PoI per
// sensor). The trajectory windows advance per sensor; coverage,
// exposure, and incident detection are union statistics — a PoI is
// covered this step when any sensor sits on it, counted once.
func (d *deployment) recordPositions(pois []int) {
	now := d.step
	d.step++
	w := len(d.wins[0])
	if d.winLen < w {
		at := (d.winStart + d.winLen) % w
		for s, poi := range pois {
			d.wins[s][at] = poi
		}
		d.winLen++
	} else {
		for s, poi := range pois {
			d.wins[s][d.winStart] = poi
		}
		d.winStart = (d.winStart + 1) % w
	}
	for s, poi := range pois {
		if covered(pois[:s], poi) {
			continue // another sensor already covers this PoI this step
		}
		d.visits[poi]++
		if last := d.lastVisit[poi]; last >= 0 {
			seg := int64(now - last)
			d.segCount[poi]++
			d.segSum[poi] += seg
			if seg > d.segMax[poi] {
				d.segMax[poi] = seg
			}
		}
		d.lastVisit[poi] = now
	}
	if d.inc != nil {
		d.inc.step(now, pois)
	}
}

// covered reports whether poi already appears among earlier sensors'
// positions this step.
func covered(earlier []int, poi int) bool {
	for _, p := range earlier {
		if p == poi {
			return true
		}
	}
	return false
}

// step advances the incident process one step under union detection:
// arrivals everywhere, then detection at every sensor position. An
// incident arriving at a PoI a sensor currently covers is detected with
// zero delay.
func (inc *incidents) step(now int, pois []int) {
	for i, rate := range inc.rates {
		if rate <= 0 {
			continue
		}
		for k := inc.src.Poisson(rate); k > 0; k-- {
			inc.open[i] = append(inc.open[i], now)
		}
	}
	for s, poi := range pois {
		if covered(pois[:s], poi) {
			continue
		}
		for _, arrival := range inc.open[poi] {
			delay := int64(now - arrival)
			inc.detected[poi]++
			inc.delaySum[poi] += delay
			if delay > inc.delayMax[poi] {
				inc.delayMax[poi] = delay
			}
		}
		inc.open[poi] = inc.open[poi][:0]
	}
}

// sensorWindow materializes sensor s's trajectory window oldest-first.
// All sensors share winStart/winLen — they advance in lockstep.
func (d *deployment) sensorWindow(s int) []int {
	out := make([]int, d.winLen)
	w := len(d.wins[s])
	for i := 0; i < d.winLen; i++ {
		out[i] = d.wins[s][(d.winStart+i)%w]
	}
	return out
}

// sensorTarget is sensor s's coverage responsibility ρ_s∘Φ: the share
// of each PoI's prescribed allocation this sensor owes. With a nil
// responsibility the split is uniform 1/K, which for one sensor is Φ
// itself. Scoring each sensor's window against its own share keeps
// per-sensor drift checks meaningful — a sensor covering only its half
// of the field is healthy, not drifted.
func sensorTarget(plan *coverage.Plan, target []float64, s int) []float64 {
	k := sensorCount(plan)
	resp := responsibility(plan)
	out := make([]float64, len(target))
	for i, phi := range target {
		rho := 1 / float64(k)
		if resp != nil {
			rho = resp[s][i]
		}
		out[i] = rho * phi
	}
	return out
}

// driftReport scores every sensor's window against its own matrix and
// responsibility-weighted target, returning the worst report (the
// trigger signal) and the per-sensor window estimates (the warm start).
func (d *deployment) driftReport() (*DriftReport, [][][]float64, error) {
	ps, err := sensorPlans(d.plan)
	if err != nil {
		return nil, nil, err
	}
	var worst *DriftReport
	estimates := make([][][]float64, len(ps))
	for s := range ps {
		rep, est, err := scoreWindow(d.sensorWindow(s), ps[s],
			sensorTarget(d.plan, d.spec.Scenario.Target, s), d.spec.Drift.Smoothing)
		if err != nil {
			return nil, nil, fmt.Errorf("sensor %d: %w", s, err)
		}
		estimates[s] = est
		if worst == nil || rep.Score > worst.Score {
			worst = rep
		}
	}
	return worst, estimates, nil
}

// reoptSpec builds the re-optimization job a drifting deployment
// submits, warm-started from the window estimates. One sensor submits
// the classic single-sensor job (coverage.Options.InitialMatrix); K ≥ 2
// sensors submit a joint fleet job over the same responsibility split
// (coverage.Options.InitialMatrices).
func (d *deployment) reoptSpec(estimates [][][]float64) jobs.Spec {
	spec := jobs.Spec{
		Scenario:   d.spec.Scenario,
		Objectives: d.spec.Objectives,
		Options:    d.spec.Reopt.Options,
		Restarts:   d.spec.Reopt.Restarts,
	}
	if len(estimates) == 1 {
		spec.Options.InitialMatrix = estimates[0]
		return spec
	}
	spec.Options.InitialMatrices = estimates
	spec.Sensors = len(estimates)
	spec.Responsibility = responsibility(d.plan)
	return spec
}

// swapPlans installs a new plan across all K executors atomically:
// every incoming matrix is validated (via a throwaway executor) before
// the first live executor is touched, so a malformed stack can never
// leave the deployment half-swapped.
func (d *deployment) swapPlans(plan *coverage.Plan) error {
	if k := sensorCount(plan); k != len(d.execs) {
		return fmt.Errorf("%d-sensor plan for a %d-sensor deployment", k, len(d.execs))
	}
	ps, err := sensorPlans(plan)
	if err != nil {
		return err
	}
	for s := range ps {
		if _, err := coverage.NewExecutor(ps[s], 0, 0); err != nil {
			return fmt.Errorf("sensor %d: %w", s, err)
		}
	}
	for s, e := range d.execs {
		if err := e.SwapPlan(ps[s]); err != nil {
			// Unreachable after the dry run above; surface it anyway.
			return fmt.Errorf("sensor %d: %w", s, err)
		}
	}
	return nil
}
