package cost

import (
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/mat"
)

// gradientInto assembles [D_P U] from a completed evaluation into the
// workspace's gradient buffer. It performs no allocations on the success
// path.
func (m *Model) gradientInto(ws *Workspace, ev *Evaluation) (*mat.Matrix, error) {
	return m.gradientIntoWith(ws, ev, nil, 0, nil)
}

// gradientIntoWith is gradientInto with optional objective-coupling
// overrides. A nil coverCoef selects the standard coverage coefficients
// c_i = α_i G_i (and coverPhi is ignored); a non-nil coverCoef supplies
// c_i directly together with the travel-time coefficient coverPhi =
// Σ_i c_i Φ̃_i for caller-chosen per-PoI targets Φ̃. A nil beta selects
// the model's exposure weights; a non-nil beta overrides them per PoI.
func (m *Model) gradientIntoWith(ws *Workspace, ev *Evaluation, coverCoef []float64, coverPhi float64, beta []float64) (*mat.Matrix, error) {
	n := m.top.M()
	sol := ev.Sol
	if beta == nil {
		beta = m.w.Beta
	}
	pd := sol.P.Data()
	for i := 0; i < n; i++ {
		if beta[i]*ev.EBarI[i] != 0 && 1-pd[i*n+i] <= 0 {
			// Same guard as Evaluate: a (numerically) absorbing row has no
			// finite exposure derivative, and dividing through would send
			// NaN/Inf into the line search. Normally unreachable because
			// Evaluate rejects such chains first, but the gradient must
			// not trust that when handed a foreign Evaluation.
			return nil, fmt.Errorf("%w: p_%d%d = 1", markov.ErrNotErgodic, i, i)
		}
	}
	// The π chain rule and the exposure row constants read Z: form it
	// once, before the row pass.
	if err := sol.Fundamental(); err != nil {
		return nil, err
	}

	ws.ensureGradient()
	dUdPi := ws.dUdPi
	for i := range dUdPi {
		dUdPi[i] = 0
	}
	ws.dUdP.Zero()

	// Shared precompute: every row j folds the coverage coefficients
	// c_i = α_i G_i over all i, so they are built once up front, with the
	// travel-time coefficient cphi = Σ_i c_i Φ_i the cover-list fold
	// subtracts.
	carr := ws.carr
	ws.anyCover = false
	for i := 0; i < n; i++ {
		c := m.w.Alpha[i] * ev.G[i]
		if coverCoef != nil {
			c = coverCoef[i]
		}
		carr[i] = c
		if c != 0 {
			ws.anyCover = true
		}
	}
	ws.beta = beta
	if ws.anyCover {
		if coverCoef == nil {
			var cphi float64
			for i := 0; i < n; i++ {
				cphi += carr[i] * m.top.TargetAt(i)
			}
			ws.cphi = cphi
		} else {
			ws.cphi = coverPhi
		}
	}

	m.gradientRows(ws, ev, 0, n)

	// Eq. 10 with ∂U/∂Z ≡ 0: [D_P U]_kl = π_k (Z·dUdPi)_l + dUdP_kl.
	if err := mat.MulVecTo(ws.q, sol.Z, dUdPi); err != nil {
		return nil, err
	}
	gd := ws.grad.Data()
	dpd := ws.dUdP.Data()
	q := ws.q
	for k := 0; k < n; k++ {
		pik := sol.Pi[k]
		grow := gd[k*n : (k+1)*n]
		dprow := dpd[k*n : (k+1)*n]
		for l := range grow {
			grow[l] = pik*q[l] + dprow[l]
		}
	}
	return ws.grad, nil
}

// gradientRows accumulates every partial-derivative term owned by rows
// [lo, hi): rows of dUdP and entries of dUdPi.
//
// The golden traces pin the order of every slot's additions and the
// expression shapes. The zero-coefficient skip (e_i = 0) is kept
// exactly: adding 0.0 is not a bitwise no-op (−0.0 + 0.0 = +0.0).
func (m *Model) gradientRows(ws *Workspace, ev *Evaluation, lo, hi int) {
	n := m.top.M()
	sol := ev.Sol
	pd := sol.P.Data()
	dpd := ws.dUdP.Data()
	dUdPi := ws.dUdPi
	carr := ws.carr

	// --- Coverage term: ½ Σ_i α_i G_i². ---
	// With S_jk = Σ_i c_i T_{jk,i} − (Σ_i c_i Φ_i)·T_jk, dUdP_jk = π_j S_jk
	// and the dUdPi fold is Σ_k p_jk S_jk. The per-(j,k) dot runs over
	// the nonzero cover list instead of all M PoIs.
	if ws.anyCover {
		covPtr, covIdx, covVal := m.top.CoverLists()
		cphi := ws.cphi
		for j := lo; j < hi; j++ {
			pij := sol.Pi[j]
			prow := pd[j*n : (j+1)*n]
			dprow := dpd[j*n : (j+1)*n]
			var acc float64
			for k := 0; k < n; k++ {
				slot := j*n + k
				var s float64
				for t := covPtr[slot]; t < covPtr[slot+1]; t++ {
					s += carr[covIdx[t]] * covVal[t]
				}
				s -= cphi * m.travel[slot]
				dprow[k] = pij * s
				if pjk := prow[k]; pjk != 0 {
					acc += pjk * s
				}
			}
			dUdPi[j] = acc
		}
	}

	// --- Exposure term: ½ Σ_i β_i Ē_i², Ē_i = (1 − π_i)/(π_i (1 − p_ii)). ---
	// With e_i = β_i Ē_i, ∂U/∂π_i = −e_i/(π_i² (1 − p_ii)) and
	// ∂U/∂p_ii = e_i Ē_i/(1 − p_ii). Row i also gains the constant
	// e_i z_ii/(π_i (1 − p_ii)) in every entry: projection removes it,
	// but it keeps the raw gradient — whose max-norm scales V4's noise —
	// equal to the R-based form of Eq. 3 (DESIGN §5).
	zd := sol.Z.Data()
	beta := ws.beta
	for i := lo; i < hi; i++ {
		e := beta[i] * ev.EBarI[i]
		if e == 0 {
			continue
		}
		prow := pd[i*n : (i+1)*n]
		denom := 1 - prow[i]
		pi := sol.Pi[i]
		pidenom := pi * denom
		dUdPi[i] -= e / (pi * pidenom)
		dprow := dpd[i*n : (i+1)*n]
		c := e * zd[i*n+i] / pidenom
		for j := range dprow {
			dprow[j] += c
		}
		dprow[i] += e * ev.EBarI[i] / denom
	}

	// --- Barrier penalty. ---
	eps := m.w.Epsilon
	for j := lo; j < hi; j++ {
		prow := pd[j*n : (j+1)*n]
		dprow := dpd[j*n : (j+1)*n]
		for k := 0; k < n; k++ {
			if g := barrierDeriv(prow[k], eps); g != 0 {
				dprow[k] += g
			}
		}
	}

	// --- Energy extension: ½ w (D − γ)². ---
	if m.w.EnergyWeight > 0 {
		c := m.w.EnergyWeight * (ev.Energy - m.w.EnergyTarget)
		for i := lo; i < hi; i++ {
			prow := pd[i*n : (i+1)*n]
			dprow := dpd[i*n : (i+1)*n]
			drow := m.top.DistanceRow(i)
			cpi := c * sol.Pi[i]
			var rowDist float64
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				d := drow[j]
				rowDist += prow[j] * d
				dprow[j] += cpi * d
			}
			dUdPi[i] += c * rowDist
		}
	}

	// --- Entropy extension: −λ H. ---
	if m.w.EntropyWeight > 0 {
		lam := m.w.EntropyWeight
		for i := lo; i < hi; i++ {
			prow := pd[i*n : (i+1)*n]
			dprow := dpd[i*n : (i+1)*n]
			lpi := lam * sol.Pi[i]
			var rowEnt float64 // Σ_j p_ij ln p_ij
			for j := 0; j < n; j++ {
				pij := prow[j]
				if pij <= 0 {
					continue
				}
				lp := math.Log(pij)
				rowEnt += pij * lp
				dprow[j] += lpi * (lp + 1)
			}
			dUdPi[i] += lam * rowEnt
		}
	}
}

// ProjectTo applies Eq. 11 into the caller-owned dst, which must share
// g's shape (dst == g is allowed: rows are rewritten after their mean is
// taken).
func ProjectTo(dst, g *mat.Matrix) {
	n := g.Rows()
	cols := g.Cols()
	gd := g.Data()
	dd := dst.Data()
	for i := 0; i < n; i++ {
		grow := gd[i*cols : (i+1)*cols]
		var sum float64
		for _, v := range grow {
			sum += v
		}
		mean := sum / float64(cols)
		drow := dd[i*cols : (i+1)*cols]
		for j, v := range grow {
			drow[j] = v - mean
		}
	}
}

// DirectionalDerivative returns ⟨[D_P U], V⟩, the rate of change of U
// along the perturbation direction V. For zero-row-sum V this equals
// d/dt U(P + tV) at t = 0, the property the finite-difference tests
// verify.
func DirectionalDerivative(grad, v *mat.Matrix) (float64, error) {
	return mat.FrobeniusInner(grad, v)
}
