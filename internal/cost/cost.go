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
//     Ē_i = Σ_{j≠i} p_ij R_ji / (1 − p_ii) (Eq. 3),
//   - a log-barrier penalty keeping every p_ij inside (0, 1) (Eq. 9),
//   - optional §VII extensions: an energy term ½ w_D (D − γ)² on the mean
//     travel distance per transition, and an entropy reward −λH on the
//     chain's entropy rate.
//
// All π-, Z- and R-dependent quantities come from package markov.
package cost

import (
	"errors"
	"fmt"
	"math"
	"sync"

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
type Model struct {
	top *topology.Topology
	w   Weights
	// at[(j*m+k)*m+i] = T_{jk,i} − Φ_i·T_jk, the per-PoI coverage
	// discrepancy coefficients. The layout is transition-major with the
	// PoI index i contiguous, so the O(M³) coverage loops in foldG and
	// gradientRows stream the innermost dimension instead of striding
	// by M². Built lazily on first dense-path use (see atTable): the
	// sparse path never touches it, which at city scale (M = 512 the
	// table is M³ doubles ≈ 1 GiB) is most of that path's memory win.
	at     []float64
	atOnce sync.Once
	// travelRow[j*m+k] = T_jk for the denominator of C̄.
	travel []float64

	// Sparse coverage lists: for transition slot j*m+k, the PoIs with
	// nonzero cover time live in covIdx/covVal[covPtr[j*m+k]:covPtr[j*m+k+1]].
	// Geometric topologies cover only the PoIs near the j→k path, so these
	// lists hold a small multiple of M² entries where the at table holds
	// M³. Built lazily on the first evaluation (see coverLists): every
	// evaluation builds its CoverTime numerator from them, on both solver
	// paths, and the sparse-path gradient folds its coverage partials
	// over them.
	covPtr  []int
	covIdx  []int32
	covVal  []float64
	covOnce sync.Once
}

// NewModel validates the weights and precomputes the coverage coefficient
// tables for the topology.
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

// atTable returns the dense coverage-coefficient table, building it on
// first use (safe under concurrent gradient workers). Each entry is
// computed with the same expression the eager constructor used, so the
// table holds the same doubles as always — the laziness cannot move any
// bits on the dense path; it only lets the sparse path skip the build.
func (m *Model) atTable() []float64 {
	m.atOnce.Do(func() {
		n := m.top.M()
		at := make([]float64, n*n*n)
		for i := 0; i < n; i++ {
			phi := m.top.TargetAt(i)
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					at[(j*n+k)*n+i] = m.top.CoverTime(j, k, i) - phi*m.top.TravelTime(j, k)
				}
			}
		}
		m.at = at
	})
	return m.at
}

// coverLists returns the sparse per-transition cover lists, scanning the
// topology's cover table once on first use.
func (m *Model) coverLists() ([]int, []int32, []float64) {
	m.covOnce.Do(func() {
		n := m.top.M()
		ptr := make([]int, n*n+1)
		var idx []int32
		var val []float64
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				for i, v := range m.top.CoverRow(j, k) {
					if v != 0 {
						idx = append(idx, int32(i))
						val = append(val, v)
					}
				}
				ptr[j*n+k+1] = len(val)
			}
		}
		m.covPtr, m.covIdx, m.covVal = ptr, idx, val
	})
	return m.covPtr, m.covIdx, m.covVal
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
	// Entropy is the chain's entropy rate H (§VII).
	Entropy float64

	// Sol carries the chain solution (π, Z, R) the evaluation used.
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

// EvaluateSolved computes the cost breakdown from an existing chain
// solution, avoiding a re-solve when the caller already has one.
func (m *Model) EvaluateSolved(sol *markov.Solution) (*Evaluation, error) {
	n := m.top.M()
	ev := &Evaluation{
		G:         make([]float64, n),
		CBar:      make([]float64, n),
		EBarI:     make([]float64, n),
		CoverTime: make([]float64, n),
	}
	if err := m.evaluateInto(ev, make([]float64, n), sol); err != nil {
		return nil, err
	}
	return ev, nil
}

// evaluateInto fills ev (whose G/CBar/EBarI slices must be sized to the
// topology) with the cost breakdown at sol, using coverNum as scratch. It
// performs no allocations on the success path.
func (m *Model) evaluateInto(ev *Evaluation, coverNum []float64, sol *markov.Solution) error {
	n := m.top.M()
	if len(sol.Pi) != n {
		return fmt.Errorf("%w: solution for %d states, topology has %d",
			ErrWeights, len(sol.Pi), n)
	}
	g, cb, eb, ct := ev.G, ev.CBar, ev.EBarI, ev.CoverTime
	if ct == nil {
		ct = make([]float64, n)
	}
	*ev = Evaluation{Sol: sol, G: g, CBar: cb, EBarI: eb, CoverTime: ct}
	for i := 0; i < n; i++ {
		g[i], cb[i], eb[i], coverNum[i] = 0, 0, 0, 0
	}
	p := sol.P

	// Coverage: G_i = Σ_{j,k} π_j p_jk a^{(i)}_{jk}; C̄_i from Eq. 2.
	// One sweep over the transitions in ascending (j, k) builds TotalTime
	// and the CoverTime numerator on both paths, the latter from the
	// sparse cover lists: a PoI a transition does not cover would add
	// w·(+0) to a sum that only ever holds non-negative values, so
	// skipping it changes no bits (DESIGN §8.2). The dense path then folds
	// G from the at table (foldG); the sparse path uses the identity
	// G_i = coverNum_i − Φ_i·TotalTime instead, the same sum reassociated
	// — exact in exact arithmetic, within markov.SparseTol in floating
	// point — and never touches the M³ table.
	covPtr, covIdx, covVal := m.coverLists()
	var totalTime float64 // Σ π_j p_jk T_jk
	pd := p.Data()
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
	if sol.Method() == markov.MethodSparse {
		for i := 0; i < n; i++ {
			g[i] = coverNum[i] - m.top.TargetAt(i)*totalTime
		}
	} else {
		m.foldG(g, sol.Pi, pd)
	}
	ev.TotalTime = totalTime
	for i := 0; i < n; i++ {
		ct[i] = coverNum[i]
		ev.CBar[i] = coverNum[i] / totalTime
		ev.CoverageTerm += 0.5 * m.w.Alpha[i] * ev.G[i] * ev.G[i]
		ev.DeltaC += ev.G[i] * ev.G[i]
	}

	// Exposure: Ē_i = Σ_{j≠i} p_ij R_ji / (1 − p_ii) (Eq. 3).
	var sumE2 float64
	rd := sol.R.Data()
	for i := 0; i < n; i++ {
		prow := pd[i*n : (i+1)*n]
		denom := 1 - prow[i]
		if denom <= 0 {
			// p_ii = 1 would make the chain reducible; Solve rejects that
			// earlier, so this is purely defensive.
			return fmt.Errorf("%w: p_%d%d = 1", markov.ErrNotErgodic, i, i)
		}
		var s float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			s += prow[j] * rd[j*n+i]
		}
		ev.EBarI[i] = s / denom
		ev.ExposureTerm += 0.5 * m.w.Beta[i] * ev.EBarI[i] * ev.EBarI[i]
		sumE2 += ev.EBarI[i] * ev.EBarI[i]
	}
	ev.EBar = math.Sqrt(sumE2)

	// Barrier penalty (Eq. 9).
	for _, v := range pd {
		ev.Penalty += barrier(v, m.w.Epsilon)
	}

	// §VII extensions.
	ev.Energy = m.energy(sol)
	if m.w.EnergyWeight > 0 {
		d := ev.Energy - m.w.EnergyTarget
		ev.EnergyTerm = 0.5 * m.w.EnergyWeight * d * d
	}
	ev.Entropy = sol.EntropyRate()
	if m.w.EntropyWeight > 0 {
		ev.EntropyTerm = -m.w.EntropyWeight * ev.Entropy
	}

	ev.Objective = ev.CoverageTerm + ev.ExposureTerm + ev.EnergyTerm + ev.EntropyTerm
	ev.U = ev.Objective + ev.Penalty
	return nil
}

// foldG accumulates the dense-path discrepancies G_i = Σ_{j,k} w_jk·a_{jk,i}
// (w_jk = π_j p_jk) into g, which must hold +0s. The nonzero-weight
// transitions are taken in ascending (j, k), four per pass over g:
// g[i] + w0*a0[i] + w1*a1[i] + w2*a2[i] + w3*a3[i] evaluates left to right,
// so every g[i] sees exactly the rounding sequence of one
// g[i] += w*a[i] per transition, while the pass streams one row of the
// at table per transition and writes g a quarter as often.
func (m *Model) foldG(g, pi, pd []float64) {
	n := len(g)
	at := m.atTable()
	var rows [4][]float64
	var ws [4]float64
	nb := 0
	for j := 0; j < n; j++ {
		pij := pi[j]
		prow := pd[j*n : (j+1)*n]
		for k := 0; k < n; k++ {
			w := pij * prow[k]
			if w == 0 {
				continue
			}
			slot := j*n + k
			rows[nb], ws[nb] = at[slot*n:slot*n+n], w
			nb++
			if nb < 4 {
				continue
			}
			nb = 0
			a0, a1, a2, a3 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
			w0, w1, w2, w3 := ws[0], ws[1], ws[2], ws[3]
			for i := range g {
				g[i] = g[i] + w0*a0[i] + w1*a1[i] + w2*a2[i] + w3*a3[i]
			}
		}
	}
	for b := 0; b < nb; b++ {
		a, w := rows[b][:n], ws[b]
		for i := range g {
			g[i] += w * a[i]
		}
	}
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
