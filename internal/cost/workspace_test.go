package cost

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestEvaluateInMatchesEvaluate verifies the workspace path is bit-for-bit
// identical to the allocating path, including the solved chain quantities.
func TestEvaluateInMatchesEvaluate(t *testing.T) {
	top := topology.Topology3()
	w := Uniform(top.M(), 1, 1)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 0.3
	w.EntropyWeight = 0.05
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	src := rng.New(404)
	ws := m.NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		p := randomErgodicP(src, top.M())
		want, err := m.Evaluate(p)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		got, err := m.EvaluateIn(ws, p)
		if err != nil {
			t.Fatalf("EvaluateIn: %v", err)
		}
		scalars := [][2]float64{
			{got.U, want.U}, {got.Objective, want.Objective},
			{got.DeltaC, want.DeltaC}, {got.EBar, want.EBar},
			{got.Energy, want.Energy}, {got.Entropy, want.Entropy},
		}
		for k, s := range scalars {
			if math.Float64bits(s[0]) != math.Float64bits(s[1]) {
				t.Fatalf("trial %d: scalar %d = %v, want %v (bit mismatch)", trial, k, s[0], s[1])
			}
		}
		for i := range want.G {
			if got.G[i] != want.G[i] || got.CBar[i] != want.CBar[i] || got.EBarI[i] != want.EBarI[i] {
				t.Fatalf("trial %d: per-PoI slice mismatch at %d", trial, i)
			}
		}
		// Both solutions form Z from their own solvers on request.
		if err := got.Sol.Fundamental(); err != nil {
			t.Fatal(err)
		}
		if err := want.Sol.Fundamental(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < top.M(); i++ {
			if got.Sol.Pi[i] != want.Sol.Pi[i] {
				t.Fatalf("trial %d: Pi[%d] mismatch", trial, i)
			}
			for j := 0; j < top.M(); j++ {
				if got.Sol.Z.At(i, j) != want.Sol.Z.At(i, j) || got.Sol.R.At(i, j) != want.Sol.R.At(i, j) {
					t.Fatalf("trial %d: Z/R mismatch at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestGradientInMatchesGradient does the same for the gradient path: a
// reused workspace gives the bits of a fresh one.
func TestGradientInMatchesGradient(t *testing.T) {
	top := topology.Topology3()
	w := Uniform(top.M(), 0.5, 2)
	w.EnergyWeight = 1
	w.EnergyTarget = 0.2
	w.EntropyWeight = 0.3
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	src := rng.New(505)
	ws := m.NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		p := randomErgodicP(src, top.M())
		_, want, err := m.GradientIn(m.NewWorkspace(), p)
		if err != nil {
			t.Fatalf("fresh GradientIn: %v", err)
		}
		_, got, err := m.GradientIn(ws, p)
		if err != nil {
			t.Fatalf("GradientIn: %v", err)
		}
		for i := 0; i < top.M(); i++ {
			for j := 0; j < top.M(); j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("trial %d: grad (%d,%d) = %v, want %v (bit mismatch)",
						trial, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// TestEvaluationCloneDetaches verifies Clone survives the workspace being
// reused for a different matrix.
func TestEvaluationCloneDetaches(t *testing.T) {
	top := topology.Topology3()
	m, err := NewModel(top, Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	src := rng.New(606)
	ws := m.NewWorkspace()
	p1 := randomErgodicP(src, top.M())
	ev1, err := m.EvaluateIn(ws, p1)
	if err != nil {
		t.Fatalf("EvaluateIn: %v", err)
	}
	clone := ev1.Clone()
	u1, g1, pi1 := ev1.U, ev1.G[0], ev1.Sol.Pi[0]

	// Overwrite the workspace with a different evaluation.
	p2 := randomErgodicP(src, top.M())
	ev2, err := m.EvaluateIn(ws, p2)
	if err != nil {
		t.Fatalf("EvaluateIn: %v", err)
	}
	if ev2.U == u1 {
		t.Fatal("test setup: both matrices evaluate identically")
	}
	if clone.U != u1 || clone.G[0] != g1 || clone.Sol.Pi[0] != pi1 {
		t.Error("Clone was clobbered by workspace reuse")
	}
}

// TestWorkspaceZeroAllocSteadyState is the tentpole regression test: once
// warm, an evaluation, a gradient, a search line's build and a probe on
// it through a Workspace allocate nothing.
func TestWorkspaceZeroAllocSteadyState(t *testing.T) {
	top := topology.Topology3()
	w := Uniform(top.M(), 1, 1)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 0.3
	w.EntropyWeight = 0.05
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	ws := m.NewWorkspace()
	p := randomErgodicP(rng.New(707), top.M())
	// Warm up: the first GradientIn lazily allocates the gradient scratch.
	if _, _, err := m.GradientIn(ws, p); err != nil {
		t.Fatalf("GradientIn warmup: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.EvaluateIn(ws, p); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("EvaluateIn allocates %v times per call in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := m.GradientIn(ws, p); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("GradientIn allocates %v times per call in steady state, want 0", allocs)
	}

	// A search line's build and its probes: Reset against a solution
	// whose Z is formed, then ProbeIn at a point on the line.
	_, g, err := m.GradientIn(ws, p)
	if err != nil {
		t.Fatal(err)
	}
	n := top.M()
	d := mat.New(n, n)
	ProjectTo(d, g)
	var scale float64
	for _, v := range d.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	delta := 1e-3 / scale
	base := m.NewWorkspace()
	ev, err := m.EvaluateIn(base, p)
	if err != nil {
		t.Fatal(err)
	}
	line := m.NewLine()
	if err := line.Reset(ev.Sol, d); err != nil { // forms Z
		t.Fatal(err)
	}
	if _, err := m.ProbeIn(ws, line, -delta); err != nil { // allocates the shifted-solve scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := line.Reset(ev.Sol, d); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("Line.Reset allocates %v times per call in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.ProbeIn(ws, line, -delta); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("ProbeIn allocates %v times per call in steady state, want 0", allocs)
	}
}

// TestEvaluateInLeavesZ2Unformed checks that an evaluation alone forms
// neither Z nor Z²: U needs π only, and Z belongs to the gradient. After
// a gradient has formed both, EvaluateIn must re-arm them, so its Sol
// reads W, Z and R as nil rather than the previous chain's. Z2 then
// forms the fundamental stage and its product from Z as it stands at
// the first request, so doctoring Z in between tells a fresh product
// from a kept one.
func TestEvaluateInLeavesZ2Unformed(t *testing.T) {
	top := topology.Topology3()
	m, err := NewModel(top, Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	ws := m.NewWorkspace()
	p := randomErgodicP(rng.New(709), top.M())
	// A gradient first, so the solver's Z and Z² buffers exist and have
	// been formed once: EvaluateIn must re-arm them, not keep them.
	ev, _, err := m.GradientIn(ws, p)
	if err != nil {
		t.Fatalf("GradientIn: %v", err)
	}
	ev.Sol.Z2()
	ev, err = m.EvaluateIn(ws, p)
	if err != nil {
		t.Fatalf("EvaluateIn: %v", err)
	}
	if ev.Sol.W != nil || ev.Sol.Z != nil || ev.Sol.R != nil {
		t.Fatal("EvaluateIn left the previous solve's W, Z or R readable")
	}
	if err := ev.Sol.Fundamental(); err != nil {
		t.Fatal(err)
	}
	mat.ScaleInPlace(2, ev.Sol.Z)
	want := mat.New(ev.Sol.Z.Rows(), ev.Sol.Z.Rows())
	if err := mat.MulTo(want, ev.Sol.Z, ev.Sol.Z); err != nil {
		t.Fatal(err)
	}
	got := ev.Sol.Z2().Data()
	for i, v := range want.Data() {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("Z2[%d] = %v, want %v from the doctored Z: EvaluateIn formed Z²", i, got[i], v)
		}
	}
}
