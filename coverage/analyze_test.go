package coverage

import (
	"errors"
	"math"
	"testing"
)

func TestAnalyzePlan(t *testing.T) {
	plan, scn := testPlan(t)
	a, err := Analyze(scn, plan)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.SpectralGap <= 0 || a.SpectralGap > 1 {
		t.Errorf("gap = %v", a.SpectralGap)
	}
	if a.MixingTimeSteps <= 0 {
		t.Errorf("mixing = %d", a.MixingTimeSteps)
	}
	if a.ConditionNumber <= 0 {
		t.Errorf("condition number = %v", a.ConditionNumber)
	}
	// The moment-based mean exposure agrees with the plan's Eq. 3 values.
	for i := range a.MeanExposure {
		if math.Abs(a.MeanExposure[i]-plan.MeanExposure[i]) > 1e-6 {
			t.Errorf("PoI %d: analysis mean %v vs plan %v", i, a.MeanExposure[i], plan.MeanExposure[i])
		}
		if a.ExposureStdDev[i] <= 0 {
			t.Errorf("PoI %d: stddev %v", i, a.ExposureStdDev[i])
		}
	}
	if _, err := Analyze(scn, nil); !errors.Is(err, ErrPlan) {
		t.Errorf("nil plan err = %v", err)
	}
}

// TestAnalyzeRejectsForeignPlan: a plan whose order differs from the
// scenario's PoI count was optimized for another scenario and is refused,
// not analysed as if it fit.
func TestAnalyzeRejectsForeignPlan(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	two := &Plan{TransitionMatrix: [][]float64{{0.5, 0.5}, {0.5, 0.5}}}
	if _, err := Analyze(scn, two); !errors.Is(err, ErrPlan) {
		t.Errorf("2-state plan on %d PoIs: err = %v, want ErrPlan", len(scn.PoIs), err)
	}
}

func TestSimulateIncidents(t *testing.T) {
	plan, scn := testPlan(t)
	rep, err := SimulateIncidents(scn, plan, []float64{2}, SimOptions{Steps: 40000, Seed: 3})
	if err != nil {
		t.Fatalf("SimulateIncidents: %v", err)
	}
	var total int64
	for i := range rep.Detected {
		total += rep.Detected[i]
		if rep.MeanDelay[i] < 0 || rep.MaxDelay[i] < rep.MeanDelay[i] {
			t.Errorf("PoI %d: mean %v max %v", i, rep.MeanDelay[i], rep.MaxDelay[i])
		}
	}
	if total == 0 {
		t.Fatal("no incidents detected")
	}
	if rep.OverallMeanDelay <= 0 || rep.ElapsedTime <= 0 {
		t.Errorf("report: %+v", rep)
	}
	if _, err := SimulateIncidents(scn, nil, []float64{1}, SimOptions{}); !errors.Is(err, ErrPlan) {
		t.Errorf("nil plan err = %v", err)
	}
	if _, err := SimulateIncidents(scn, plan, []float64{1, 1}, SimOptions{Steps: 100}); err == nil {
		t.Error("wrong rate count should error")
	}
}

func TestSimulateFleetPublic(t *testing.T) {
	plan, scn := testPlan(t)
	one, err := SimulateFleet(scn, plan, 1, SimOptions{Steps: 30000, Seed: 5})
	if err != nil {
		t.Fatalf("SimulateFleet(1): %v", err)
	}
	three, err := SimulateFleet(scn, plan, 3, SimOptions{Steps: 30000, Seed: 5})
	if err != nil {
		t.Fatalf("SimulateFleet(3): %v", err)
	}
	var worst1, worst3 float64
	for i := range one.MeanGap {
		if one.MeanGap[i] > worst1 {
			worst1 = one.MeanGap[i]
		}
		if three.MeanGap[i] > worst3 {
			worst3 = three.MeanGap[i]
		}
	}
	if worst3 >= worst1 {
		t.Errorf("3-sensor worst gap %v not below 1-sensor %v", worst3, worst1)
	}
	if _, err := SimulateFleet(scn, nil, 2, SimOptions{}); err == nil {
		t.Error("nil plan should error")
	}
	if _, err := SimulateFleet(scn, plan, 0, SimOptions{Steps: 100}); err == nil {
		t.Error("zero sensors should error")
	}
}

// TestIncidentDelayImprovesWithExposureObjective connects the detection
// model to the optimizer: weighting exposure (β) reduces the realized
// incident response delay relative to a coverage-only schedule.
func TestIncidentDelayImprovesWithExposureObjective(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	coverageOnly, err := Optimize(scn, Objectives{Alpha: 1}, Options{MaxIters: 500, Seed: 6})
	if err != nil {
		t.Fatalf("Optimize α-only: %v", err)
	}
	exposureAware, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1}, Options{MaxIters: 500, Seed: 6})
	if err != nil {
		t.Fatalf("Optimize with β: %v", err)
	}
	rates := []float64{1}
	repCov, err := SimulateIncidents(scn, coverageOnly, rates, SimOptions{Steps: 60000, Seed: 8})
	if err != nil {
		t.Fatalf("SimulateIncidents: %v", err)
	}
	repExp, err := SimulateIncidents(scn, exposureAware, rates, SimOptions{Steps: 60000, Seed: 8})
	if err != nil {
		t.Fatalf("SimulateIncidents: %v", err)
	}
	if repExp.OverallMeanDelay >= repCov.OverallMeanDelay {
		t.Errorf("exposure-aware delay %v not below coverage-only %v",
			repExp.OverallMeanDelay, repCov.OverallMeanDelay)
	}
}
