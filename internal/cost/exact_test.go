package cost

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/topology"
)

// oracleCase is one fixture of the reformulation oracles: a model and a
// transition matrix, solved on one backend.
type oracleCase struct {
	name   string
	model  *Model
	p      *mat.Matrix
	method markov.Method
}

// oracleCases returns random, Metropolis and kNN-support matrices at
// orders 3 to 97 on random geometric fields with skewed targets, on both
// solver backends. The kNN chains' exact zeros exercise the w == 0 skip.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var out []oracleCase
	for _, size := range []int{3, 8, 24, 64, 97} {
		top, err := topology.Random(rng.New(uint64(size)+40), topology.RandomConfig{
			M: size, Width: 40 * float64(size), Height: 40 * float64(size), SkewTarget: true,
		})
		if err != nil {
			t.Fatalf("M=%d topology: %v", size, err)
		}
		w := Uniform(size, 1, 0.01)
		for i := range w.Alpha {
			w.Alpha[i] = 1 + float64(i%3)
		}
		w.EnergyWeight, w.EnergyTarget, w.EntropyWeight = 0.5, 100, 0.05
		model, err := NewModel(top, w)
		if err != nil {
			t.Fatal(err)
		}
		metropolis, err := mcmc.MetropolisHastings(top.Target())
		if err != nil {
			t.Fatal(err)
		}
		matrices := []struct {
			name string
			p    *mat.Matrix
		}{
			{"random", randomErgodicP(rng.New(uint64(size)), size)},
			{"metropolis", metropolis},
			{"knn", knnSupportP(top, min(6, size-2))},
		}
		for _, mc := range matrices {
			for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
				out = append(out, oracleCase{
					name:  fmt.Sprintf("M=%d/%s/%v", size, mc.name, method),
					model: model, p: mc.p, method: method,
				})
			}
		}
	}
	return out
}

// fullSolve runs both stages of a chain solve on the given backend.
func fullSolve(t *testing.T, p *mat.Matrix, method markov.Method) *markov.Solution {
	t.Helper()
	s := markov.NewSolver(p.Rows())
	s.SetMethod(method)
	sol, err := s.Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

// referenceGE is the coverage discrepancy and exposure the cost computed
// before the closed forms: G folded from the dense coefficient table
// a_{jk,i} = T_{jk,i} − Φ_i T_jk over the nonzero-weight transitions in
// ascending (j, k), and Ē_i = Σ_{j≠i} p_ij R_ji / (1 − p_ii) from the
// full solution's R (Eq. 3).
func referenceGE(m *Model, sol *markov.Solution) (g, ebar []float64) {
	n := m.top.M()
	g = make([]float64, n)
	ebar = make([]float64, n)
	pd := sol.P.Data()
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			w := sol.Pi[j] * pd[j*n+k]
			if w == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				g[i] += w * (m.top.CoverTime(j, k, i) - m.top.TargetAt(i)*m.top.TravelTime(j, k))
			}
		}
	}
	rd := sol.R.Data()
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			if j != i {
				s += pd[i*n+j] * rd[j*n+i]
			}
		}
		ebar[i] = s / (1 - pd[i*n+i])
	}
	return g, ebar
}

// maxRelErr returns max_i |got_i − want_i| / scale, where scale is
// max_i |want_i| (or 1 when want is all zero).
func maxRelErr(got, want []float64) float64 {
	var scale, d float64
	for i := range want {
		scale = math.Max(scale, math.Abs(want[i]))
		d = math.Max(d, math.Abs(got[i]-want[i]))
	}
	if scale == 0 {
		scale = 1
	}
	return d / scale
}

// TestEvaluateMatchesRBasedOracle checks the closed forms against the
// quantities they replace: G = CoverTime − Φ·TotalTime against the
// coefficient-table fold, and Ē_i = (1 − π_i)/(π_i (1 − p_ii)) (Kac)
// against Eq. 3's R-based sum from a full solve of the same chain, each
// entry to 1e-12 relative. The stationary-stage evaluation must leave the
// fundamental stage unformed.
func TestEvaluateMatchesRBasedOracle(t *testing.T) {
	const tol = 1e-12
	var worstG, worstE float64
	for _, tc := range oracleCases(t) {
		ws := tc.model.NewWorkspace()
		ws.SetSolver(tc.method)
		ev, err := tc.model.EvaluateIn(ws, tc.p)
		if err != nil {
			t.Fatalf("%s: EvaluateIn: %v", tc.name, err)
		}
		if ev.Sol.Method() != tc.method {
			t.Fatalf("%s: solved with %v", tc.name, ev.Sol.Method())
		}
		if ev.Sol.Z != nil || ev.Sol.R != nil || ev.Sol.W != nil {
			t.Fatalf("%s: EvaluateIn formed the fundamental stage", tc.name)
		}
		wantG, wantE := referenceGE(tc.model, fullSolve(t, tc.p, tc.method))
		for i := range wantE {
			if d := math.Abs(ev.EBarI[i]-wantE[i]) / wantE[i]; d > tol {
				t.Errorf("%s: Ē_%d = %v, R-based %v (rel %.2g)", tc.name, i, ev.EBarI[i], wantE[i], d)
			} else {
				worstE = math.Max(worstE, d)
			}
		}
		if d := maxRelErr(ev.G, wantG); d > tol {
			t.Errorf("%s: G off the table fold by %.2g relative", tc.name, d)
		} else {
			worstG = math.Max(worstG, d)
		}
	}
	t.Logf("worst relative error: G %.2g, Ē %.2g", worstG, worstE)
}

// referenceGradient is the Eq. 10 assembly the cost shipped with before
// the closed-form exposure: ∂U/∂π, ∂U/∂Z and ∂U/∂P of the R-based Eq. 3
// contracted as π_k (Z·∂U/∂π)_l + (Zᵀ·∂U/∂Z·Zᵀ)_kl
// − π_k (Z²·colsums(∂U/∂Z))_l + ∂U/∂p_kl, in plain dense products from a
// full solve. ebar is the evaluation's Ē, c the coverage coefficients
// with travel coupling cphi, and beta the exposure weights.
func referenceGradient(m *Model, sol *markov.Solution, ebar, c []float64, cphi float64, beta []float64) *mat.Matrix {
	n := m.top.M()
	pd := sol.P.Data()
	zd := sol.Z.Data()
	dUdPi := make([]float64, n)
	dUdZ := mat.New(n, n)
	dUdP := mat.New(n, n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			var s float64
			for i := 0; i < n; i++ {
				s += c[i] * m.top.CoverTime(j, k, i)
			}
			s -= cphi * m.top.TravelTime(j, k)
			dUdP.Add(j, k, sol.Pi[j]*s)
			dUdPi[j] += pd[j*n+k] * s
		}
	}
	for i := 0; i < n; i++ {
		e := beta[i] * ebar[i]
		if e == 0 {
			continue
		}
		denom := 1 - pd[i*n+i]
		pi := sol.Pi[i]
		dUdPi[i] -= e * ebar[i] / pi
		dUdZ.Add(i, i, e/pi)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dUdZ.Add(j, i, -e*pd[i*n+j]/(pi*denom))
			dUdP.Add(i, j, e*(zd[i*n+i]-zd[j*n+i])/(pi*denom))
		}
		dUdP.Add(i, i, e*ebar[i]/denom)
	}
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			dUdP.Add(j, k, barrierDeriv(pd[j*n+k], m.w.Epsilon))
		}
	}
	if m.w.EnergyWeight > 0 {
		var d float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					d += sol.Pi[i] * pd[i*n+j] * m.top.Distance(i, j)
				}
			}
		}
		cd := m.w.EnergyWeight * (d - m.w.EnergyTarget)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					dUdP.Add(i, j, cd*sol.Pi[i]*m.top.Distance(i, j))
					dUdPi[i] += cd * pd[i*n+j] * m.top.Distance(i, j)
				}
			}
		}
	}
	if lam := m.w.EntropyWeight; lam > 0 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if p := pd[i*n+j]; p > 0 {
					dUdP.Add(i, j, lam*sol.Pi[i]*(math.Log(p)+1))
					dUdPi[i] += lam * p * math.Log(p)
				}
			}
		}
	}
	zt := mat.Transpose(sol.Z)
	tmp, _ := mat.Mul(dUdZ, zt)
	term2a, _ := mat.Mul(zt, tmp)
	colsum := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			colsum[j] += dUdZ.At(i, j)
		}
	}
	q, _ := mat.MulVec(sol.Z, dUdPi)
	r, _ := mat.MulVec(sol.Z2(), colsum)
	grad := mat.New(n, n)
	for k := 0; k < n; k++ {
		for l := 0; l < n; l++ {
			grad.Set(k, l, sol.Pi[k]*(q[l]-r[l])+term2a.At(k, l)+dUdP.At(k, l))
		}
	}
	return grad
}

// checkRawGradient compares every raw entry of got with the R-based
// oracle to tol relative to the oracle's max-norm, the scale of V4's
// noise, and returns the observed relative error.
func checkRawGradient(t *testing.T, name string, got, want *mat.Matrix, tol float64) float64 {
	t.Helper()
	scale := mat.MaxAbs(want)
	d := mat.MaxAbsDiff(got, want) / scale
	if d > tol {
		t.Errorf("%s: raw gradient off the R-based Eq. 10 by %.2g of its max-norm %v", name, d, scale)
	}
	if r := math.Abs(mat.MaxAbs(got)-scale) / scale; r > tol {
		t.Errorf("%s: raw max-norm %v, R-based %v (rel %.2g)", name, mat.MaxAbs(got), scale, r)
	}
	return d
}

// TestGradientMatchesRBasedOracle pins the reduced Eq. 10 — ∂U/∂Z ≡ 0
// plus the exposure row constants — against the full R-based assembly,
// entry by entry on the raw (unprojected) gradient: V4 scales its noise
// by the raw max-norm, so projecting first would hide a drift in it.
func TestGradientMatchesRBasedOracle(t *testing.T) {
	const tol = 1e-9
	var worst float64
	for _, tc := range oracleCases(t) {
		// A β large enough that the exposure term shapes the gradient.
		w := tc.model.Weights()
		for i := range w.Beta {
			w.Beta[i] = 0.1 * float64(1+i%4)
		}
		model, err := NewModel(tc.model.Topology(), w)
		if err != nil {
			t.Fatal(err)
		}
		ws := model.NewWorkspace()
		ws.SetSolver(tc.method)
		ev, got, err := model.GradientIn(ws, tc.p)
		if err != nil {
			t.Fatalf("%s: GradientIn: %v", tc.name, err)
		}
		full := fullSolve(t, tc.p, tc.method)
		g, ebar := referenceGE(model, full)
		n := len(g)
		c := make([]float64, n)
		var cphi float64
		for i := range c {
			c[i] = w.Alpha[i] * g[i]
			cphi += c[i] * model.top.TargetAt(i)
		}
		if ev.Sol.Z == nil {
			t.Fatalf("%s: the gradient left Z unformed", tc.name)
		}
		want := referenceGradient(model, full, ebar, c, cphi, w.Beta)
		worst = math.Max(worst, checkRawGradient(t, tc.name, got, want, tol))
	}
	t.Logf("worst raw-entry error: %.2g of the max-norm", worst)
}

// TestFleetGradientMatchesRBasedOracle is the weighted entry point the
// fleet layer drives, at K = 2: each sensor's block gets the fleet
// coverage coefficients c_i = α_i G_i^fleet with its responsibility-
// scaled travel coupling, and β masked to the PoIs whose min-over-sensors
// exposure it owns.
func TestFleetGradientMatchesRBasedOracle(t *testing.T) {
	const tol = 1e-9
	for _, size := range []int{8, 24, 64} {
		top, err := topology.Random(rng.New(uint64(size)+7), topology.RandomConfig{
			M: size, Width: 40 * float64(size), Height: 40 * float64(size), SkewTarget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := Uniform(size, 1, 0.05)
		w.EnergyWeight, w.EnergyTarget, w.EntropyWeight = 0.5, 100, 0.05
		model, err := NewModel(top, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
			name := fmt.Sprintf("M=%d/K=2/%v", size, method)
			ps := []*mat.Matrix{randomErgodicP(rng.New(uint64(size)+1), size), knnSupportP(top, min(6, size-2))}
			const rho = 0.5
			wss := make([]*Workspace, 2)
			evs := make([]*Evaluation, 2)
			fulls := make([]*markov.Solution, 2)
			refG := make([][]float64, 2)
			refE := make([][]float64, 2)
			for s, p := range ps {
				wss[s] = model.NewWorkspace()
				wss[s].SetSolver(method)
				if evs[s], err = model.EvaluateIn(wss[s], p); err != nil {
					t.Fatal(err)
				}
				fulls[s] = fullSolve(t, p, method)
				refG[s], refE[s] = referenceGE(model, fulls[s])
			}
			// The fleet couplings, from the reference quantities: G^fleet
			// sums the per-sensor discrepancies against ρΦ, and each PoI's
			// exposure belongs to the sensor with the smaller Ē.
			c := make([]float64, size)
			owner := make([]int, size)
			for i := range c {
				var gi float64
				for s := range ps {
					gi += evs[s].CoverTime[i] - rho*top.TargetAt(i)*evs[s].TotalTime
				}
				c[i] = w.Alpha[i] * gi
				if refE[1][i] < refE[0][i] {
					owner[i] = 1
				}
			}
			var masked int
			for s := range ps {
				beta := make([]float64, size)
				var cphi float64
				for i := range beta {
					if owner[i] == s {
						beta[i] = w.Beta[i]
					} else {
						masked++
					}
					cphi += c[i] * rho * top.TargetAt(i)
				}
				got, err := model.GradientWeightedSolvedIn(wss[s], evs[s], c, cphi, beta)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceGradient(model, fulls[s], refE[s], c, cphi, beta)
				checkRawGradient(t, fmt.Sprintf("%s/sensor %d", name, s), got, want, tol)
			}
			if masked == 0 {
				t.Fatalf("%s: fixture never masks β", name)
			}
		}
	}
}
