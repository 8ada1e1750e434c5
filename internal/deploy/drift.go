package deploy

import (
	"fmt"
	"math"

	"repro/coverage"
	"repro/internal/markov"
)

// DriftReport is the result of one drift check: the sliding-window
// estimate of the chain the sensor is actually following, scored against
// the deployed plan.
type DriftReport struct {
	// Step is the deployment step at which the check ran.
	Step int `json:"step"`
	// WindowLen is the number of positions in the window; Transitions is
	// WindowLen − 1.
	WindowLen   int `json:"windowLen"`
	Transitions int `json:"transitions"`
	// Score is the occupancy-weighted mean row total-variation distance
	// between the window estimate P̂ and the deployed plan P:
	//
	//	Score = Σ_i (n_i/N) · ½ Σ_j |p̂_ij − p_ij|
	//
	// where n_i is row i's visit count inside the window. Weighting by
	// occupancy keeps rarely visited rows — whose estimates are mostly
	// smoothing prior — from dominating the statistic. Score ∈ [0, 1].
	Score float64 `json:"score"`
	// MaxRowTV is the worst single-row total variation among rows with at
	// least one observed departure — a localized-drift detector the
	// weighted mean can dilute.
	MaxRowTV float64 `json:"maxRowTV"`
	// LogLikelihoodRatio is the mean per-transition log-likelihood ratio
	// log p̂(x_{t+1}|x_t) − log p(x_{t+1}|x_t) of the window under the
	// estimate versus the plan. Near 0 when the plan still explains the
	// data; grows with divergence.
	LogLikelihoodRatio float64 `json:"logLikelihoodRatio"`
	// EmpiricalDeltaC is the window's coverage deviation Σ_i (ĉ_i − φ_i)²
	// where ĉ_i is PoI i's visit fraction inside the window — the
	// empirical counterpart of the plan's analytic ΔC.
	EmpiricalDeltaC float64 `json:"empiricalDeltaC"`
	// PlanDeltaC is the deployed plan's analytic ΔC, for comparison.
	PlanDeltaC float64 `json:"planDeltaC"`
	// Triggered reports whether this check submitted a re-optimization.
	Triggered bool `json:"triggered"`
}

// scoreWindow fits markov.Estimate over one sensor's window and scores
// it against that sensor's plan and target. It returns the report and
// the estimated matrix rows (the warm start for a triggered
// re-optimization).
func scoreWindow(window []int, plan *coverage.Plan, target []float64, smoothing float64) (*DriftReport, [][]float64, error) {
	m := len(plan.TransitionMatrix)
	est, err := markov.Estimate(window, m, smoothing)
	if err != nil {
		return nil, nil, fmt.Errorf("estimate: %w", err)
	}

	n := len(window)
	rep := &DriftReport{WindowLen: n, Transitions: n - 1}

	// Row occupancy: departures observed from each state (the last
	// position has no departure).
	departures := make([]float64, m)
	for _, s := range window[:n-1] {
		departures[s]++
	}
	total := float64(n - 1)

	rows := make([][]float64, m)
	for i := 0; i < m; i++ {
		rows[i] = append([]float64(nil), est.Row(i)...)
		var tv float64
		for j := 0; j < m; j++ {
			tv += math.Abs(rows[i][j] - plan.TransitionMatrix[i][j])
		}
		tv /= 2
		rep.Score += departures[i] / total * tv
		if departures[i] > 0 && tv > rep.MaxRowTV {
			rep.MaxRowTV = tv
		}
	}

	// Mean per-transition log-likelihood ratio. The estimate is strictly
	// positive under positive smoothing; the plan may carry exact zeros
	// on transitions the window actually took (that is drift in its
	// purest form), so floor the plan's probability to keep the statistic
	// finite yet strongly responsive.
	const floorP = 1e-12
	var llr float64
	for t := 1; t < n; t++ {
		i, j := window[t-1], window[t]
		pHat := rows[i][j]
		p := plan.TransitionMatrix[i][j]
		if pHat < floorP {
			pHat = floorP
		}
		if p < floorP {
			p = floorP
		}
		llr += math.Log(pHat) - math.Log(p)
	}
	rep.LogLikelihoodRatio = llr / total

	// Window coverage deviation against the prescribed allocation.
	counts := make([]float64, m)
	for _, s := range window {
		counts[s]++
	}
	for i := 0; i < m; i++ {
		g := counts[i]/float64(n) - target[i]
		rep.EmpiricalDeltaC += g * g
	}
	rep.PlanDeltaC = plan.DeltaC
	return rep, rows, nil
}
