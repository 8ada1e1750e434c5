package cost

import (
	"errors"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// uniformP returns the M-state matrix with every entry 1/M (the paper's V1
// initialization).
func uniformP(m int) *mat.Matrix {
	p := mat.New(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			p.Set(i, j, 1/float64(m))
		}
	}
	return p
}

// randomErgodicP returns a random strictly positive stochastic matrix.
func randomErgodicP(src *rng.Source, m int) *mat.Matrix {
	p := mat.New(m, m)
	row := make([]float64, m)
	for i := 0; i < m; i++ {
		src.DirichletRow(row, 1)
		for j := range row {
			row[j] = 0.8*row[j] + 0.2/float64(m)
		}
		p.SetRow(i, row)
	}
	return p
}

// zeroRowSumDirection returns a random tangent direction.
func zeroRowSumDirection(src *rng.Source, n int) *mat.Matrix {
	v := mat.New(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			x := src.Norm(0, 1)
			v.Set(i, j, x)
			sum += x
		}
		for j := 0; j < n; j++ {
			v.Set(i, j, v.At(i, j)-sum/float64(n))
		}
	}
	return v
}

func TestUniformWeights(t *testing.T) {
	w := Uniform(3, 1, 0.5)
	if len(w.Alpha) != 3 || len(w.Beta) != 3 {
		t.Fatalf("lengths = %d/%d", len(w.Alpha), len(w.Beta))
	}
	if w.Alpha[2] != 1 || w.Beta[0] != 0.5 {
		t.Errorf("weights = %+v", w)
	}
	if w.Epsilon != DefaultEpsilon {
		t.Errorf("epsilon = %v", w.Epsilon)
	}
}

func TestNewModelValidation(t *testing.T) {
	top := topology.Topology2()
	cases := []struct {
		name string
		w    Weights
	}{
		{"wrong alpha length", Weights{Alpha: []float64{1}, Beta: []float64{1, 1, 1}}},
		{"wrong beta length", Weights{Alpha: []float64{1, 1, 1}, Beta: []float64{1}}},
		{"negative alpha", Weights{Alpha: []float64{-1, 1, 1}, Beta: []float64{1, 1, 1}}},
		{"negative beta", Weights{Alpha: []float64{1, 1, 1}, Beta: []float64{1, -1, 1}}},
		{"epsilon too large", func() Weights { w := Uniform(3, 1, 1); w.Epsilon = 0.5; return w }()},
		{"negative energy weight", func() Weights { w := Uniform(3, 1, 1); w.EnergyWeight = -1; return w }()},
		{"negative entropy weight", func() Weights { w := Uniform(3, 1, 1); w.EntropyWeight = -1; return w }()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewModel(top, tc.w); !errors.Is(err, ErrWeights) {
				t.Errorf("err = %v, want ErrWeights", err)
			}
		})
	}
}

func TestModelCopiesWeights(t *testing.T) {
	top := topology.Topology2()
	w := Uniform(3, 1, 1)
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	w.Alpha[0] = 99
	if got := m.Weights().Alpha[0]; got != 1 {
		t.Errorf("model alpha mutated to %v", got)
	}
	got := m.Weights()
	got.Beta[0] = 77
	if m.Weights().Beta[0] != 1 {
		t.Error("Weights() exposed internal storage")
	}
}

func TestEvaluateBasicInvariants(t *testing.T) {
	top := topology.Topology3()
	m, err := NewModel(top, Uniform(4, 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	ev, err := m.Evaluate(uniformP(4))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.CoverageTerm < 0 || ev.ExposureTerm < 0 || ev.Penalty < 0 {
		t.Errorf("negative component: %+v", ev)
	}
	if math.Abs(ev.U-(ev.Objective+ev.Penalty)) > 1e-12 {
		t.Errorf("U = %v != Objective %v + Penalty %v", ev.U, ev.Objective, ev.Penalty)
	}
	if math.Abs(ev.Objective-(ev.CoverageTerm+ev.ExposureTerm)) > 1e-12 {
		t.Errorf("Objective decomposition off: %+v", ev)
	}
	// Ē aggregates the per-PoI values (Eq. 13).
	var s float64
	for _, e := range ev.EBarI {
		if e <= 0 {
			t.Errorf("Ē_i = %v, want positive", e)
		}
		s += e * e
	}
	if math.Abs(ev.EBar-math.Sqrt(s)) > 1e-12 {
		t.Errorf("EBar = %v, want %v", ev.EBar, math.Sqrt(s))
	}
	// ΔC aggregates G (Eq. 12).
	var dc float64
	for _, g := range ev.G {
		dc += g * g
	}
	if math.Abs(ev.DeltaC-dc) > 1e-15 {
		t.Errorf("DeltaC = %v, want %v", ev.DeltaC, dc)
	}
	// Coverage shares lie in (0, 1] and cannot sum above 1 (PoIs are
	// disjoint, travel time may be uncovered).
	var csum float64
	for i, c := range ev.CBar {
		if c <= 0 || c > 1 {
			t.Errorf("C̄_%d = %v", i, c)
		}
		csum += c
	}
	if csum > 1+1e-9 {
		t.Errorf("Σ C̄ = %v > 1", csum)
	}
}

func TestEvaluateUniformWeightsMatchEq14(t *testing.T) {
	// With uniform α, β: U_obj = ½αΔC + ½βĒ² (Eq. 14).
	top := topology.Topology2()
	alpha, beta := 2.0, 0.3
	m, err := NewModel(top, Uniform(3, alpha, beta))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	src := rng.New(200)
	for trial := 0; trial < 20; trial++ {
		ev, err := m.Evaluate(randomErgodicP(src, 3))
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		want := 0.5*alpha*ev.DeltaC + 0.5*beta*ev.EBar*ev.EBar
		if math.Abs(ev.Objective-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: Objective = %v, Eq.14 gives %v", trial, ev.Objective, want)
		}
	}
}

func TestEvaluateRejectsNonErgodic(t *testing.T) {
	top := topology.Topology2()
	m, err := NewModel(top, Uniform(3, 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	p, _ := mat.NewFromRows([][]float64{
		{1, 0, 0},
		{0, 0.5, 0.5},
		{0, 0.5, 0.5},
	})
	if _, err := m.Evaluate(p); !errors.Is(err, markov.ErrNotErgodic) {
		t.Errorf("err = %v, want ErrNotErgodic", err)
	}
}

// TestEvaluateSolvedDimensionMismatch: a model refuses a chain of
// another dimension before solving it.
func TestEvaluateSolvedDimensionMismatch(t *testing.T) {
	top := topology.Topology2() // 3 PoIs
	m, err := NewModel(top, Uniform(3, 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	if _, err := m.EvaluateIn(m.NewWorkspace(), uniformP(4)); !errors.Is(err, markov.ErrNotStochastic) {
		t.Errorf("4-state chain on a 3-PoI model: err = %v, want ErrNotStochastic", err)
	}
}

func TestBarrierShape(t *testing.T) {
	eps := 1e-4
	if b := barrier(0.5, eps); b != 0 {
		t.Errorf("barrier(0.5) = %v, want 0", b)
	}
	if b := barrier(eps, eps); math.Abs(b) > 1e-15 {
		t.Errorf("barrier(ε) = %v, want 0", b)
	}
	if b := barrier(eps/10, eps); b <= 0 {
		t.Errorf("barrier inside lower band = %v, want > 0", b)
	}
	if b := barrier(1-eps/10, eps); b <= 0 {
		t.Errorf("barrier inside upper band = %v, want > 0", b)
	}
	if b := barrier(0, eps); !math.IsInf(b, 1) {
		t.Errorf("barrier(0) = %v, want +Inf", b)
	}
	if b := barrier(1, eps); !math.IsInf(b, 1) {
		t.Errorf("barrier(1) = %v, want +Inf", b)
	}
	// Monotone decreasing as p pulls away from 0.
	if barrier(eps/4, eps) <= barrier(eps/2, eps) {
		t.Error("barrier should decrease moving away from 0")
	}
}

func TestBarrierDerivFiniteDifference(t *testing.T) {
	eps := 1e-2 // wide band so FD is stable
	for _, p := range []float64{0.001, 0.005, 0.009, 0.5, 0.991, 0.995, 0.999} {
		h := 1e-8
		fd := (barrier(p+h, eps) - barrier(p-h, eps)) / (2 * h)
		got := barrierDeriv(p, eps)
		if math.Abs(fd-got) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("p=%v: analytic %v, FD %v", p, got, fd)
		}
	}
}

// project applies Eq. 11 through ProjectTo into a new matrix.
func project(g *mat.Matrix) *mat.Matrix {
	out := mat.New(g.Rows(), g.Cols())
	ProjectTo(out, g)
	return out
}

func TestProjectRowsSumToZero(t *testing.T) {
	src := rng.New(201)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.IntN(6)
		g := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, src.Norm(0, 3))
			}
		}
		p := project(g)
		for i, s := range mat.RowSums(p) {
			if math.Abs(s) > 1e-9 {
				t.Fatalf("trial %d: projected row %d sums to %v", trial, i, s)
			}
		}
		// Idempotence.
		if mat.MaxAbsDiff(project(p), p) > 1e-12 {
			t.Fatalf("trial %d: projection not idempotent", trial)
		}
		// In place (dst == g) is the same projection.
		inPlace := g.Clone()
		ProjectTo(inPlace, inPlace)
		if mat.MaxAbsDiff(inPlace, p) != 0 {
			t.Fatalf("trial %d: in-place projection differs", trial)
		}
	}
}

func TestProjectConstantRowsVanish(t *testing.T) {
	g, _ := mat.NewFromRows([][]float64{{1, 1, 1}, {-2, -2, -2}, {0.5, 0.5, 0.5}})
	p := project(g)
	if mat.MaxAbs(p) > 1e-15 {
		t.Errorf("projection of constant rows = %v", p)
	}
}

// gradientWeightCases enumerates the objective configurations whose
// analytic gradients the finite-difference test validates.
func gradientWeightCases() map[string]func(m int) Weights {
	return map[string]func(m int) Weights{
		"coverage only":  func(m int) Weights { return Uniform(m, 1, 0) },
		"exposure only":  func(m int) Weights { return Uniform(m, 0, 1) },
		"both":           func(m int) Weights { return Uniform(m, 1, 1) },
		"skewed weights": func(m int) Weights { return Uniform(m, 1, 1e-3) },
		"with energy": func(m int) Weights {
			w := Uniform(m, 1, 1)
			w.EnergyWeight = 2
			w.EnergyTarget = 0.5
			return w
		},
		"with entropy": func(m int) Weights {
			w := Uniform(m, 1, 1)
			w.EntropyWeight = 0.7
			return w
		},
		"everything": func(m int) Weights {
			w := Uniform(m, 0.5, 2)
			w.EnergyWeight = 1
			w.EnergyTarget = 0.2
			w.EntropyWeight = 0.3
			return w
		},
	}
}

// TestGradientMatchesFiniteDifference is the core correctness test of the
// whole package: ⟨[D_P U], V⟩ must equal the central finite difference of
// U along every zero-row-sum direction V.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	tops := map[string]*topology.Topology{
		"topology2": topology.Topology2(),
		"topology3": topology.Topology3(),
	}
	for topName, top := range tops {
		for wName, mk := range gradientWeightCases() {
			t.Run(topName+"/"+wName, func(t *testing.T) {
				m, err := NewModel(top, mk(top.M()))
				if err != nil {
					t.Fatalf("NewModel: %v", err)
				}
				src := rng.New(uint64(len(topName)*1000 + len(wName)))
				const h = 1e-6
				for trial := 0; trial < 10; trial++ {
					p := randomErgodicP(src, top.M())
					_, grad, err := m.GradientIn(m.NewWorkspace(), p)
					if err != nil {
						t.Fatalf("Gradient: %v", err)
					}
					v := zeroRowSumDirection(src, top.M())
					mat.ScaleInPlace(0.01/(mat.MaxAbs(v)+1e-12), v)

					analytic, err := DirectionalDerivative(grad, v)
					if err != nil {
						t.Fatalf("DirectionalDerivative: %v", err)
					}
					up := p.Clone()
					if err := mat.AddInPlace(up, h, v); err != nil {
						t.Fatal(err)
					}
					dn := p.Clone()
					if err := mat.AddInPlace(dn, -h, v); err != nil {
						t.Fatal(err)
					}
					evUp, err := m.Evaluate(up)
					if err != nil {
						t.Fatalf("Evaluate(+h): %v", err)
					}
					evDn, err := m.Evaluate(dn)
					if err != nil {
						t.Fatalf("Evaluate(-h): %v", err)
					}
					fd := (evUp.U - evDn.U) / (2 * h)
					scale := 1 + math.Abs(fd)
					if math.Abs(analytic-fd) > 2e-4*scale {
						t.Fatalf("trial %d: analytic %v, FD %v (rel err %v)",
							trial, analytic, fd, math.Abs(analytic-fd)/scale)
					}
				}
			})
		}
	}
}

// flooredErgodicP returns a random ergodic matrix with `floored` entries
// per row pinned at exactly `floor`, the remainder renormalized onto the
// row's largest entry. This reproduces the iterates descent maintains at
// its MinProb floor (1e-7 by default), where the barrier is active and the
// entropy term's log is steep.
func flooredErgodicP(src *rng.Source, m, floored int, floor float64) *mat.Matrix {
	p := randomErgodicP(src, m)
	for i := 0; i < m; i++ {
		// Pin the `floored` smallest entries of the row (excluding the
		// largest, which absorbs the mass difference).
		for f := 0; f < floored; f++ {
			minJ, maxJ := 0, 0
			for j := 1; j < m; j++ {
				if p.At(i, j) < p.At(i, minJ) {
					minJ = j
				}
				if p.At(i, j) > p.At(i, maxJ) {
					maxJ = j
				}
			}
			if minJ == maxJ || p.At(i, minJ) <= floor {
				break
			}
			excess := p.At(i, minJ) - floor
			p.Set(i, minJ, floor)
			p.Set(i, maxJ, p.At(i, maxJ)+excess)
		}
	}
	return p
}

// TestGradientAtMinProbFloorWithExtensions extends the finite-difference
// check to the §VII energy and entropy terms at iterates sitting on the
// descent MinProb floor (descent.DefaultMinProb = 1e-7; literal here to
// avoid an import cycle). Both extensions are nonlinear in exactly the
// entries the floor pins — entropy through p·ln p, the barrier through
// ln p — so this is where an index slip in the §VII gradient terms would
// hide from the interior-point test above. The step h must keep p ± h·v
// strictly positive against entries of 1e-7, hence h = 1e-10 and a looser
// tolerance matching the barrier's curvature at the floor.
func TestGradientAtMinProbFloorWithExtensions(t *testing.T) {
	const minProb = 1e-7 // descent.DefaultMinProb
	cases := map[string]func(m int) Weights{
		"energy": func(m int) Weights {
			w := Uniform(m, 1, 1)
			w.EnergyWeight = 2
			w.EnergyTarget = 0.4
			return w
		},
		"entropy": func(m int) Weights {
			w := Uniform(m, 1, 1)
			w.EntropyWeight = 0.7
			return w
		},
		"energy+entropy": func(m int) Weights {
			w := Uniform(m, 1, 1)
			w.EnergyWeight = 1
			w.EnergyTarget = 0.2
			w.EntropyWeight = 0.3
			return w
		},
	}
	top := topology.Topology3()
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := NewModel(top, mk(top.M()))
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			src := rng.New(uint64(7000 + len(name)))
			const h = 1e-10
			for trial := 0; trial < 10; trial++ {
				p := flooredErgodicP(src, top.M(), 2, minProb)
				_, grad, err := m.GradientIn(m.NewWorkspace(), p)
				if err != nil {
					t.Fatalf("Gradient: %v", err)
				}
				for i := 0; i < top.M(); i++ {
					for j := 0; j < top.M(); j++ {
						if g := grad.At(i, j); math.IsNaN(g) || math.IsInf(g, 0) {
							t.Fatalf("trial %d: grad[%d][%d] = %v at floor", trial, i, j, g)
						}
					}
				}
				v := zeroRowSumDirection(src, top.M())
				mat.ScaleInPlace(0.01/(mat.MaxAbs(v)+1e-12), v)
				analytic, err := DirectionalDerivative(grad, v)
				if err != nil {
					t.Fatalf("DirectionalDerivative: %v", err)
				}
				up := p.Clone()
				if err := mat.AddInPlace(up, h, v); err != nil {
					t.Fatal(err)
				}
				dn := p.Clone()
				if err := mat.AddInPlace(dn, -h, v); err != nil {
					t.Fatal(err)
				}
				evUp, err := m.Evaluate(up)
				if err != nil {
					t.Fatalf("Evaluate(+h): %v", err)
				}
				evDn, err := m.Evaluate(dn)
				if err != nil {
					t.Fatalf("Evaluate(-h): %v", err)
				}
				fd := (evUp.U - evDn.U) / (2 * h)
				scale := 1 + math.Abs(fd)
				if math.Abs(analytic-fd) > 1e-2*scale {
					t.Fatalf("trial %d: analytic %v, FD %v (rel err %v)",
						trial, analytic, fd, math.Abs(analytic-fd)/scale)
				}
			}
		})
	}
}

// TestGradientNonUniformWeights verifies the analytic gradient with
// per-PoI weights that differ from one another (the paper evaluates only
// uniform α_i, β_i, but the formulation and this implementation support
// heterogeneous weights).
func TestGradientNonUniformWeights(t *testing.T) {
	top := topology.Topology3()
	w := Weights{
		Alpha:   []float64{2, 0, 0.5, 1},
		Beta:    []float64{0, 3, 0.1, 1e-3},
		Epsilon: DefaultEpsilon,
	}
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	src := rng.New(606)
	const h = 1e-6
	for trial := 0; trial < 10; trial++ {
		p := randomErgodicP(src, 4)
		_, grad, err := m.GradientIn(m.NewWorkspace(), p)
		if err != nil {
			t.Fatalf("Gradient: %v", err)
		}
		v := zeroRowSumDirection(src, 4)
		mat.ScaleInPlace(0.01/(mat.MaxAbs(v)+1e-12), v)
		analytic, err := DirectionalDerivative(grad, v)
		if err != nil {
			t.Fatalf("DirectionalDerivative: %v", err)
		}
		up := p.Clone()
		_ = mat.AddInPlace(up, h, v)
		dn := p.Clone()
		_ = mat.AddInPlace(dn, -h, v)
		evUp, err := m.Evaluate(up)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		evDn, err := m.Evaluate(dn)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		fd := (evUp.U - evDn.U) / (2 * h)
		if math.Abs(analytic-fd) > 2e-4*(1+math.Abs(fd)) {
			t.Fatalf("trial %d: analytic %v, FD %v", trial, analytic, fd)
		}
	}
}

// TestGradientInBarrierRegion checks the gradient where the lower barrier
// is active (an entry below ε).
func TestGradientInBarrierRegion(t *testing.T) {
	top := topology.Topology2()
	w := Uniform(3, 1, 1)
	w.Epsilon = 1e-2 // widen the band so we can probe inside it
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	// Entry (0,1) sits inside the barrier band.
	p, _ := mat.NewFromRows([][]float64{
		{0.495, 0.005, 0.5},
		{0.3, 0.4, 0.3},
		{0.3, 0.3, 0.4},
	})
	_, grad, err := m.GradientIn(m.NewWorkspace(), p)
	if err != nil {
		t.Fatalf("Gradient: %v", err)
	}
	src := rng.New(303)
	const h = 1e-7
	for trial := 0; trial < 5; trial++ {
		v := zeroRowSumDirection(src, 3)
		mat.ScaleInPlace(0.001/(mat.MaxAbs(v)+1e-12), v)
		analytic, _ := DirectionalDerivative(grad, v)
		up := p.Clone()
		_ = mat.AddInPlace(up, h, v)
		dn := p.Clone()
		_ = mat.AddInPlace(dn, -h, v)
		evUp, err := m.Evaluate(up)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		evDn, err := m.Evaluate(dn)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		fd := (evUp.U - evDn.U) / (2 * h)
		if math.Abs(analytic-fd) > 1e-3*(1+math.Abs(fd)) {
			t.Fatalf("trial %d: analytic %v, FD %v", trial, analytic, fd)
		}
	}
}

// TestDiscrepancyIdentity verifies the relationship between the paper's
// computational discrepancy G_i (used in ΔC, Eq. 12) and the normalized
// coverage shares C̄_i (Eq. 2): G_i = (C̄_i − Φ_i)·T̄ where
// T̄ = Σ_{j,k} π_j p_jk T_jk is the mean transition duration.
func TestDiscrepancyIdentity(t *testing.T) {
	src := rng.New(505)
	for _, top := range []*topology.Topology{topology.Topology2(), topology.Topology3()} {
		m, err := NewModel(top, Uniform(top.M(), 1, 1))
		if err != nil {
			t.Fatalf("NewModel: %v", err)
		}
		for trial := 0; trial < 10; trial++ {
			p := randomErgodicP(src, top.M())
			ev, err := m.Evaluate(p)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			// Recover T̄ from Eq. 2: C̄_i·T̄ = Σ π_j p_jk T_{jk,i}.
			var tbar float64
			for j := 0; j < top.M(); j++ {
				for k := 0; k < top.M(); k++ {
					tbar += ev.Sol.Pi[j] * p.At(j, k) * top.TravelTime(j, k)
				}
			}
			for i := 0; i < top.M(); i++ {
				want := (ev.CBar[i] - top.TargetAt(i)) * tbar
				if math.Abs(ev.G[i]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%s trial %d: G_%d = %v, identity gives %v",
						top.Name(), trial, i, ev.G[i], want)
				}
			}
		}
	}
}

func TestEnergyMetric(t *testing.T) {
	top := topology.Topology2()
	m, err := NewModel(top, Uniform(3, 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	// Fully lazy chain moves almost nothing; compare with a busy chain.
	lazy, _ := mat.NewFromRows([][]float64{
		{0.98, 0.01, 0.01},
		{0.01, 0.98, 0.01},
		{0.01, 0.01, 0.98},
	})
	busy := uniformP(3)
	evLazy, err := m.Evaluate(lazy)
	if err != nil {
		t.Fatalf("Evaluate(lazy): %v", err)
	}
	evBusy, err := m.Evaluate(busy)
	if err != nil {
		t.Fatalf("Evaluate(busy): %v", err)
	}
	if evLazy.Energy >= evBusy.Energy {
		t.Errorf("lazy energy %v >= busy energy %v", evLazy.Energy, evBusy.Energy)
	}
	if evLazy.Energy < 0 {
		t.Errorf("negative energy %v", evLazy.Energy)
	}
}

func TestEntropyMetricMatchesSolution(t *testing.T) {
	top := topology.Topology2()
	m, err := NewModel(top, Uniform(3, 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	src := rng.New(404)
	p := randomErgodicP(src, 3)
	ev, err := m.Evaluate(p)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(ev.Entropy-ev.Sol.EntropyRate()) > 1e-12 {
		t.Errorf("Entropy = %v, solution says %v", ev.Entropy, ev.Sol.EntropyRate())
	}
	if ev.Entropy <= 0 || ev.Entropy > math.Log(3)+1e-12 {
		t.Errorf("entropy %v outside (0, ln 3]", ev.Entropy)
	}
}
