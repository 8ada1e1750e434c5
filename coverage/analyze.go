package coverage

import (
	"fmt"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/sim"
)

// Analysis characterizes a schedule beyond the headline metrics: spectral
// and mixing behavior (how quickly an observer's knowledge of the
// sensor's position decays) and the variability of exposure intervals
// (not just their mean).
type Analysis struct {
	// SLEM is the second-largest eigenvalue modulus of the schedule.
	SLEM float64 `json:"slem"`
	// SpectralGap is 1 − SLEM; larger gaps forget the start faster.
	SpectralGap float64 `json:"spectralGap"`
	// MixingTimeSteps is the exact 1%-total-variation mixing time.
	MixingTimeSteps int `json:"mixingTimeSteps"`
	// EntropyRate is the schedule's entropy rate in nats.
	EntropyRate float64 `json:"entropyRateNats"`
	// KemenyConstant is the start-independent mean hitting time.
	KemenyConstant float64 `json:"kemenyConstant"`
	// ConditionNumber bounds the stationary distribution's sensitivity to
	// errors in the deployed transition probabilities (Funderlic–Meyer):
	// max shift in π ≤ ConditionNumber × the ∞-norm of the matrix error.
	ConditionNumber float64 `json:"conditionNumber"`
	// MeanExposure is Ē_i per PoI, in steps.
	MeanExposure []float64 `json:"meanExposureSteps"`
	// ExposureStdDev is the standard deviation of each PoI's exposure
	// segment length, in steps — high values mean occasional very long
	// unwatched intervals even when the mean looks fine.
	ExposureStdDev []float64 `json:"exposureStdDevSteps"`
}

// Analyze computes the Analysis of a plan's schedule on its scenario.
func Analyze(scn Scenario, plan *Plan) (*Analysis, error) {
	if plan == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrPlan)
	}
	top, err := scn.build()
	if err != nil {
		return nil, err
	}
	if n := len(plan.TransitionMatrix); n != top.M() {
		return nil, fmt.Errorf("%w: %d-state plan for scenario %q with %d PoIs",
			ErrPlan, n, scn.Name, top.M())
	}
	pm, err := mat.NewFromRows(plan.TransitionMatrix)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	a, err := markov.Analyze(pm, markov.AnalyzeOptions{})
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	return &Analysis{
		SLEM:            a.SLEM,
		SpectralGap:     a.SpectralGap,
		MixingTimeSteps: a.MixingTime,
		EntropyRate:     a.EntropyRate,
		KemenyConstant:  a.KemenyConstant,
		ConditionNumber: a.ConditionNumber,
		MeanExposure:    a.MeanExposure,
		ExposureStdDev:  a.ExposureStdDev,
	}, nil
}

// IncidentReport summarizes a detection-delay simulation: incidents occur
// at each PoI as a Poisson process and are detected when the sensor next
// covers that PoI (the paper's motivating response-delay story).
type IncidentReport struct {
	// Detected counts detected incidents per PoI.
	Detected []int64 `json:"detected"`
	// Undetected counts incidents still pending at the end of the run.
	Undetected []int64 `json:"undetected"`
	// MeanDelay is the mean detection delay per PoI, in time units.
	MeanDelay []float64 `json:"meanDelay"`
	// MaxDelay is the worst observed delay per PoI.
	MaxDelay []float64 `json:"maxDelay"`
	// OverallMeanDelay averages over all detected incidents.
	OverallMeanDelay float64 `json:"overallMeanDelay"`
	// ElapsedTime is the simulated physical horizon.
	ElapsedTime float64 `json:"elapsedTime"`
}

// SimulateIncidents drives the plan's schedule and overlays Poisson
// incidents with the given per-PoI rates (events per unit time). A single
// uniform rate may be passed as a one-element slice.
func SimulateIncidents(scn Scenario, plan *Plan, rates []float64, opts SimOptions) (*IncidentReport, error) {
	if plan == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrPlan)
	}
	top, err := scn.build()
	if err != nil {
		return nil, err
	}
	if len(rates) == 1 {
		uniform := make([]float64, top.M())
		for i := range uniform {
			uniform[i] = rates[0]
		}
		rates = uniform
	}
	pm, err := mat.NewFromRows(plan.TransitionMatrix)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	if opts.Steps == 0 {
		opts.Steps = 100000
	}
	met, err := sim.RunIncidents(sim.Config{
		Topology: top,
		P:        pm,
		Steps:    opts.Steps,
		Seed:     opts.Seed,
	}, rates)
	if err != nil {
		return nil, fmt.Errorf("coverage: incidents: %w", err)
	}
	return &IncidentReport{
		Detected:         met.Detected,
		Undetected:       met.Undetected,
		MeanDelay:        met.MeanDelay,
		MaxDelay:         met.MaxDelay,
		OverallMeanDelay: met.OverallMeanDelay,
		ElapsedTime:      met.ElapsedTime,
	}, nil
}
