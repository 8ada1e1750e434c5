// Package cost implements the paper's multi-objective cost function U_ε
// (Eq. 9) over Markov transition matrices, together with its exact
// analytic gradient in transition-probability space (Eq. 10) and the
// projection onto the stochastic-matrix tangent space (Eq. 11).
//
// The cost combines:
//
//   - the coverage-time deviation term ½ Σ_i α_i G_i² with
//     G_i = Σ_{j,k} π_j p_jk (T_{jk,i} − Φ_i T_jk),
//   - the exposure-time term ½ Σ_i β_i Ē_i² with
//     Ē_i = Σ_{j≠i} p_ij R_ji / (1 − p_ii) (Eq. 3), evaluated in the
//     closed form (1 − π_i)/(π_i (1 − p_ii)) that Kac's return-time
//     identity R_ii = 1/π_i = 1 + Σ_{j≠i} p_ij R_ji gives,
//   - a log-barrier penalty keeping every p_ij inside (0, 1) (Eq. 9),
//   - optional §VII extensions: an energy term ½ w_D (D − γ)² on the mean
//     travel distance per transition, and an entropy reward −λH on the
//     chain's entropy rate.
//
// π, and for the gradient Z, come from package markov. The cost itself
// needs only π, so an evaluation runs the chain solve's stationary stage
// and leaves Z to the gradient. A line-search probe (ProbeIn) runs on a
// search Line through the iterate: π from a markov.Line instead of a
// factorization, and the coverage and energy sums from tables affine in
// the step.
package cost

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/topology"
)

// ErrWeights indicates an invalid Weights configuration.
var ErrWeights = errors.New("cost: invalid weights")

// DefaultEpsilon is the paper's barrier width (ε = 0.0001 throughout §VI).
const DefaultEpsilon = 1e-4

// Weights configures the relative importance of the objectives.
type Weights struct {
	// Alpha are the per-PoI coverage-deviation weights α_i.
	Alpha []float64
	// Beta are the per-PoI exposure weights β_i.
	Beta []float64
	// Epsilon is the barrier width ε of Eq. 9; DefaultEpsilon if zero.
	Epsilon float64

	// EnergyWeight enables the §VII energy objective ½·w·(D − EnergyTarget)²
	// when positive, where D = Σ_i π_i Σ_{j≠i} p_ij d_ij is the mean travel
	// distance per transition.
	EnergyWeight float64
	// EnergyTarget is the prescribed mean movement γ.
	EnergyTarget float64

	// EntropyWeight λ adds −λ·H to the cost when positive, rewarding
	// unpredictable schedules (§VII).
	EntropyWeight float64
}

// Uniform returns Weights with α_i = alpha and β_i = beta for all m PoIs,
// the configuration used throughout the paper's evaluation (§VI).
func Uniform(m int, alpha, beta float64) Weights {
	w := Weights{
		Alpha:   make([]float64, m),
		Beta:    make([]float64, m),
		Epsilon: DefaultEpsilon,
	}
	for i := 0; i < m; i++ {
		w.Alpha[i] = alpha
		w.Beta[i] = beta
	}
	return w
}

// validate checks the weights against the number of PoIs.
func (w *Weights) validate(m int) error {
	if len(w.Alpha) != m || len(w.Beta) != m {
		return fmt.Errorf("%w: %d alphas and %d betas for %d PoIs",
			ErrWeights, len(w.Alpha), len(w.Beta), m)
	}
	for i := 0; i < m; i++ {
		if w.Alpha[i] < 0 || w.Beta[i] < 0 {
			return fmt.Errorf("%w: negative weight at PoI %d", ErrWeights, i)
		}
	}
	if w.Epsilon < 0 || w.Epsilon >= 0.5 {
		return fmt.Errorf("%w: epsilon %v outside [0, 0.5)", ErrWeights, w.Epsilon)
	}
	if w.EnergyWeight < 0 || w.EntropyWeight < 0 {
		return fmt.Errorf("%w: negative extension weight", ErrWeights)
	}
	return nil
}

// Model evaluates U_ε and its gradient for a fixed topology and weights.
// Every evaluation, search line and gradient reads the coverage times
// T_{jk,i} from the topology's per-transition cover lists
// (topology.CoverLists), which hold a small multiple of M² entries on a
// geometric field. The topology builds them once and never changes them,
// so concurrent restarts share a Model without synchronization.
type Model struct {
	top *topology.Topology
	w   Weights
	// travel[j*m+k] = T_jk for the denominator of C̄.
	travel []float64
}

// NewModel validates the weights and precomputes the travel-time table
// for the topology.
func NewModel(top *topology.Topology, w Weights) (*Model, error) {
	m := top.M()
	if err := w.validate(m); err != nil {
		return nil, err
	}
	if w.Epsilon == 0 {
		w.Epsilon = DefaultEpsilon
	}
	// Copy the weight slices so later caller mutation cannot corrupt the
	// model.
	w.Alpha = append([]float64(nil), w.Alpha...)
	w.Beta = append([]float64(nil), w.Beta...)

	mod := &Model{
		top:    top,
		w:      w,
		travel: make([]float64, m*m),
	}
	for j := 0; j < m; j++ {
		for k := 0; k < m; k++ {
			mod.travel[j*m+k] = top.TravelTime(j, k)
		}
	}
	return mod, nil
}

// Topology returns the model's topology.
func (m *Model) Topology() *topology.Topology { return m.top }

// Weights returns a copy of the model's weights.
func (m *Model) Weights() Weights {
	w := m.w
	w.Alpha = append([]float64(nil), w.Alpha...)
	w.Beta = append([]float64(nil), w.Beta...)
	return w
}

// Evaluation is the full breakdown of the cost at one transition matrix.
type Evaluation struct {
	// U is the total penalized cost U_ε (Eq. 9), the optimizer objective.
	U float64
	// Objective is U without the barrier penalty — the "real" cost of
	// Eq. 4 plus any enabled extensions.
	Objective float64

	// CoverageTerm is ½ Σ_i α_i G_i².
	CoverageTerm float64
	// ExposureTerm is ½ Σ_i β_i Ē_i².
	ExposureTerm float64
	// Penalty is the barrier contribution.
	Penalty float64
	// EnergyTerm is ½ w_D (D − γ)² (zero when disabled).
	EnergyTerm float64
	// EntropyTerm is −λH (zero when disabled).
	EntropyTerm float64

	// DeltaC is the paper's coverage-time deviation metric Σ_i G_i²
	// (Eq. 12, weight-free).
	DeltaC float64
	// EBar is the paper's aggregate exposure metric sqrt(Σ_i Ē_i²)
	// (Eq. 13).
	EBar float64
	// G are the raw per-PoI coverage discrepancies G_i.
	G []float64
	// CBar is the achieved coverage-time distribution C̄_i (Eq. 2).
	CBar []float64
	// EBarI are the per-PoI mean exposure times Ē_i (Eq. 3).
	EBarI []float64
	// CoverTime is the raw coverage numerator Σ_{j,k} π_j p_jk T_{jk,i}
	// per PoI (CBar's numerator before normalization). Together with
	// TotalTime it lets a caller rebuild G against any target vector:
	// G_i(Φ') = CoverTime_i − Φ'_i·TotalTime — the identity the fleet
	// layer uses to give each sensor its own responsibility-scaled target
	// without a per-sensor cost model.
	CoverTime []float64
	// TotalTime is Σ_{j,k} π_j p_jk T_jk, the mean time per transition.
	TotalTime float64
	// Energy is the mean travel distance per transition D (§VII).
	Energy float64
	// Entropy is the chain's entropy rate H (§VII). A probe evaluation
	// leaves it zero when EntropyWeight is.
	Entropy float64

	// Sol carries the chain solution the evaluation used. The cost reads
	// only its stationary stage (P and π); W, Z and R are nil until
	// Sol.Fundamental forms them, which the gradient does.
	Sol *markov.Solution
}

// Evaluate computes the full cost breakdown at transition matrix p.
// It returns markov.ErrNotErgodic if the chain has no limiting behavior.
//
// Each call builds a fresh result; hot loops should hold a Workspace and
// call EvaluateIn, which reuses one set of buffers across calls and is
// bit-for-bit identical.
func (m *Model) Evaluate(p *mat.Matrix) (*Evaluation, error) {
	return m.EvaluateIn(m.NewWorkspace(), p)
}

// evaluateInto fills ev (whose G/CBar/EBarI/CoverTime slices must be
// sized to the topology) with the cost breakdown at sol. It performs no
// allocations on the success path.
func (m *Model) evaluateInto(ev *Evaluation, sol *markov.Solution) error {
	n := m.top.M()
	if len(sol.Pi) != n {
		return fmt.Errorf("%w: solution for %d states, topology has %d",
			ErrWeights, len(sol.Pi), n)
	}
	coverNum := ev.CoverTime
	clear(coverNum)

	// Coverage: one sweep over the transitions in ascending (j, k) builds
	// TotalTime = Σ π_j p_jk T_jk and the CoverTime numerator
	// Σ_{j,k} π_j p_jk T_{jk,i}, the latter from the sparse cover lists:
	// a PoI a transition does not cover would add w·(+0) to a sum that
	// only ever holds non-negative values, so skipping it changes no bits
	// (DESIGN §8.2).
	covPtr, covIdx, covVal := m.top.CoverLists()
	var totalTime float64
	pd := sol.P.Data()
	for j := 0; j < n; j++ {
		pij := sol.Pi[j]
		prow := pd[j*n : (j+1)*n]
		for k := 0; k < n; k++ {
			w := pij * prow[k]
			if w == 0 {
				continue
			}
			slot := j*n + k
			totalTime += w * m.travel[slot]
			lo, hi := covPtr[slot], covPtr[slot+1]
			idx := covIdx[lo:hi]
			vals := covVal[lo:hi]
			vals = vals[:len(idx)]
			for t, i := range idx {
				coverNum[i] += w * vals[t]
			}
		}
	}
	return m.finish(ev, sol, totalTime, m.energy(sol), true, nil)
}

// finish completes a cost breakdown whose CoverTime numerator holds
// Σ_{j,k} π_j p_jk T_{jk,i}, given TotalTime and the energy D at sol:
// everything else it reads from sol's P and π. The entropy rate, the
// one term a search line does not tabulate, is computed when withEntropy
// is set or its weight is nonzero: U reads it only through EntropyTerm, an exact
// zero otherwise, and its M² logarithms would be a large share of a
// line-search probe. A non-nil edge lists, ascending, the only entries
// of P that can lie outside the barrier's zero band (Line.edge); nil
// scans every entry.
func (m *Model) finish(ev *Evaluation, sol *markov.Solution, totalTime, energy float64, withEntropy bool, edge []int32) error {
	n := m.top.M()
	g, cb, eb, ct := ev.G, ev.CBar, ev.EBarI, ev.CoverTime
	*ev = Evaluation{Sol: sol, G: g, CBar: cb, EBarI: eb, CoverTime: ct,
		TotalTime: totalTime, Energy: energy}
	pd := sol.P.Data()

	// Coverage: G_i = Σ_{j,k} π_j p_jk (T_{jk,i} − Φ_i T_jk) regrouped as
	// CoverTime_i − Φ_i·TotalTime, so no M³ coefficient table is ever
	// built; C̄_i from Eq. 2.
	for i := 0; i < n; i++ {
		g[i] = ct[i] - m.top.TargetAt(i)*totalTime
		cb[i] = ct[i] / totalTime
		ev.CoverageTerm += 0.5 * m.w.Alpha[i] * g[i] * g[i]
		ev.DeltaC += g[i] * g[i]
	}

	// Exposure: Ē_i = Σ_{j≠i} p_ij R_ji / (1 − p_ii) (Eq. 3), which by
	// Kac's identity R_ii = 1/π_i = 1 + Σ_{j≠i} p_ij R_ji is
	// (1 − π_i)/(π_i (1 − p_ii)): no Z or R needed.
	var sumE2 float64
	for i := 0; i < n; i++ {
		denom := 1 - pd[i*n+i]
		if denom <= 0 {
			// p_ii = 1 would make the chain reducible; Solve rejects that
			// earlier, so this is purely defensive.
			return fmt.Errorf("%w: p_%d%d = 1", markov.ErrNotErgodic, i, i)
		}
		pi := sol.Pi[i]
		eb[i] = (1 - pi) / (pi * denom)
		ev.ExposureTerm += 0.5 * m.w.Beta[i] * eb[i] * eb[i]
		sumE2 += eb[i] * eb[i]
	}
	ev.EBar = math.Sqrt(sumE2)

	// Barrier penalty (Eq. 9). Inside [ε, 1−ε] the barrier is +0, and
	// adding +0 to the non-negative sum changes no bit, so only the
	// entries outside that band call it.
	eps := m.w.Epsilon
	if edge == nil {
		for _, v := range pd {
			if v > eps && v < 1-eps {
				continue
			}
			ev.Penalty += barrier(v, eps)
		}
	} else {
		for _, k := range edge {
			if v := pd[k]; !(v > eps && v < 1-eps) {
				ev.Penalty += barrier(v, eps)
			}
		}
	}

	// §VII extensions.
	if m.w.EnergyWeight > 0 {
		d := energy - m.w.EnergyTarget
		ev.EnergyTerm = 0.5 * m.w.EnergyWeight * d * d
	}
	if withEntropy || m.w.EntropyWeight > 0 {
		ev.Entropy = sol.EntropyRate()
	}
	if m.w.EntropyWeight > 0 {
		ev.EntropyTerm = -m.w.EntropyWeight * ev.Entropy
	}

	ev.Objective = ev.CoverageTerm + ev.ExposureTerm + ev.EnergyTerm + ev.EntropyTerm
	ev.U = ev.Objective + ev.Penalty
	return nil
}

// energy returns D = Σ_i π_i Σ_{j≠i} p_ij d_ij.
func (m *Model) energy(sol *markov.Solution) float64 {
	n := m.top.M()
	pd := sol.P.Data()
	var d float64
	for i := 0; i < n; i++ {
		pii := sol.Pi[i]
		prow := pd[i*n : (i+1)*n]
		drow := m.top.DistanceRow(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d += pii * prow[j] * drow[j]
		}
	}
	return d
}

// barrier is the Eq. 9 penalty for a single entry: zero in [ε, 1−ε],
// blowing up to +∞ as p approaches 0 or 1.
func barrier(p, eps float64) float64 {
	var b float64
	if p <= eps {
		if p <= 0 {
			return math.Inf(1)
		}
		d := eps - p
		b += -(1 / eps) * math.Log(p) * d * d
	}
	if p >= 1-eps {
		if p >= 1 {
			return math.Inf(1)
		}
		d := 1 - eps - p
		b += -(1 / eps) * math.Log(1-p) * d * d
	}
	return b
}

// barrierDeriv is d(barrier)/dp.
func barrierDeriv(p, eps float64) float64 {
	var g float64
	if p <= eps && p > 0 {
		d := eps - p
		g += -(1 / eps) * (d*d/p - 2*math.Log(p)*d)
	}
	if p >= 1-eps && p < 1 {
		d := 1 - eps - p
		g += -(1 / eps) * (-d*d/(1-p) - 2*math.Log(1-p)*d)
	}
	return g
}
