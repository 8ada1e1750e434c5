package coverage

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/descent"
	"repro/internal/mat"
)

func TestScenarioBuilders(t *testing.T) {
	line, err := LineScenario("l", 3, []float64{0.5, 0.25, 0.25})
	if err != nil {
		t.Fatalf("LineScenario: %v", err)
	}
	if len(line.PoIs) != 3 || line.Range != DefaultRange {
		t.Errorf("line = %+v", line)
	}
	grid, err := GridScenario("g", 2, 2, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatalf("GridScenario: %v", err)
	}
	if len(grid.PoIs) != 4 {
		t.Errorf("grid = %+v", grid)
	}
	for n := 1; n <= 4; n++ {
		if _, err := PaperTopology(n); err != nil {
			t.Errorf("PaperTopology(%d): %v", n, err)
		}
	}
	if _, err := PaperTopology(0); !errors.Is(err, ErrScenario) {
		t.Errorf("PaperTopology(0) err = %v", err)
	}
	if _, err := LineScenario("bad", 1, []float64{1}); !errors.Is(err, ErrScenario) {
		t.Errorf("bad line err = %v", err)
	}
}

func TestScenarioValidationOnBuild(t *testing.T) {
	scn := Scenario{
		Name:   "broken",
		PoIs:   []PoI{{X: 0, Y: 0}, {X: 1, Y: 0}},
		Target: []float64{0.7, 0.7}, // sums to 1.4
	}
	if _, err := Optimize(scn, Objectives{Alpha: 1}, Options{MaxIters: 5}); !errors.Is(err, ErrScenario) {
		t.Errorf("err = %v, want ErrScenario", err)
	}
}

func TestObjectivesValidation(t *testing.T) {
	scn, err := LineScenario("l", 3, []float64{0.5, 0.25, 0.25})
	if err != nil {
		t.Fatalf("LineScenario: %v", err)
	}
	if _, err := Optimize(scn, Objectives{}, Options{MaxIters: 5}); !errors.Is(err, ErrObjectives) {
		t.Errorf("zero objectives err = %v", err)
	}
	if _, err := Optimize(scn, Objectives{Alpha: -1, Beta: 1}, Options{MaxIters: 5}); !errors.Is(err, ErrObjectives) {
		t.Errorf("negative alpha err = %v", err)
	}
}

// TestEstimateSchedule closes the deploy→observe→re-plan loop: walk an
// optimized plan with the Executor, estimate the schedule back from the
// visit trajectory, and check the estimate's evaluation matches the
// plan's.
func TestEstimateSchedule(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1e-3}
	plan, err := Optimize(scn, obj, Options{MaxIters: 300, Seed: 14})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	exec, err := NewExecutor(plan, 0, 15)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	trajectory := make([]int, 300000)
	trajectory[0] = exec.Current()
	for i := 1; i < len(trajectory); i++ {
		trajectory[i] = exec.Next()
	}
	est, err := EstimateSchedule(trajectory, len(scn.PoIs), 0.5)
	if err != nil {
		t.Fatalf("EstimateSchedule: %v", err)
	}
	for i := range est {
		for j := range est[i] {
			if math.Abs(est[i][j]-plan.TransitionMatrix[i][j]) > 0.01 {
				t.Errorf("p[%d][%d]: estimated %v vs deployed %v",
					i, j, est[i][j], plan.TransitionMatrix[i][j])
			}
		}
	}
	// The recovered schedule evaluates to (almost) the same cost.
	evalEst, err := EvaluateMatrix(scn, obj, est)
	if err != nil {
		t.Fatalf("EvaluateMatrix: %v", err)
	}
	if rel := math.Abs(evalEst.Cost-plan.Cost) / plan.Cost; rel > 0.05 {
		t.Errorf("estimated-schedule cost %v vs plan %v", evalEst.Cost, plan.Cost)
	}
	if _, err := EstimateSchedule([]int{0}, 3, 0.5); err == nil {
		t.Error("short trajectory should error")
	}
}

func TestRingScenario(t *testing.T) {
	target := []float64{0.25, 0.25, 0.25, 0.25}
	scn, err := RingScenario("ring", 4, 2, target)
	if err != nil {
		t.Fatalf("RingScenario: %v", err)
	}
	if len(scn.PoIs) != 4 {
		t.Fatalf("PoIs = %d", len(scn.PoIs))
	}
	// All PoIs on the circle of radius 2 centered at (2, 2).
	for i, p := range scn.PoIs {
		r := math.Hypot(p.X-2, p.Y-2)
		if math.Abs(r-2) > 1e-9 {
			t.Errorf("PoI %d at radius %v", i, r)
		}
	}
	if _, err := Optimize(scn, Objectives{Beta: 1}, Options{MaxIters: 30}); err != nil {
		t.Errorf("optimize ring: %v", err)
	}
	// Validation paths.
	if _, err := RingScenario("tiny", 1, 2, []float64{1}); !errors.Is(err, ErrScenario) {
		t.Errorf("n=1 err = %v", err)
	}
	if _, err := RingScenario("flat", 3, 0, target[:3]); !errors.Is(err, ErrScenario) {
		t.Errorf("radius 0 err = %v", err)
	}
	// Too many PoIs for the circumference at the default range.
	big := make([]float64, 40)
	for i := range big {
		big[i] = 1.0 / 40
	}
	if _, err := RingScenario("crowded", 40, 1, big); !errors.Is(err, ErrScenario) {
		t.Errorf("crowded ring err = %v", err)
	}
}

func TestOptimizeBest(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Beta: 1}
	single, err := Optimize(scn, obj, Options{MaxIters: 120, Seed: 31, Algorithm: AdaptiveDescent})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	multi, err := OptimizeBest(scn, obj, Options{MaxIters: 120, Seed: 31, Algorithm: AdaptiveDescent}, 5)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	// The portfolio winner is no worse than... any single run with a seed
	// from the same stream; compare against the first-seed run indirectly
	// through cost ordering: multi must be ≤ the max of what it saw, and
	// in particular repeated calls are deterministic.
	multi2, err := OptimizeBest(scn, obj, Options{MaxIters: 120, Seed: 31, Algorithm: AdaptiveDescent}, 5)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	if multi.Cost != multi2.Cost {
		t.Errorf("OptimizeBest not deterministic: %v vs %v", multi.Cost, multi2.Cost)
	}
	_ = single // single-run cost varies with its seed; no direct ordering claim
	if _, err := OptimizeBest(scn, obj, Options{MaxIters: 10}, 0); !errors.Is(err, ErrObjectives) {
		t.Errorf("zero restarts err = %v", err)
	}
}

// TestPerPoIWeights exercises heterogeneous α_i/β_i through the public
// API: weighting exposure only at PoI 0 should buy it a shorter mean
// exposure than the unweighted schedule gives it.
func TestPerPoIWeights(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	uniform, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1e-4},
		Options{MaxIters: 400, Seed: 12})
	if err != nil {
		t.Fatalf("Optimize uniform: %v", err)
	}
	focused, err := Optimize(scn, Objectives{
		Alpha:      1,
		PerPoIBeta: []float64{1, 0, 0, 0}, // bound exposure at PoI 0 only
	}, Options{MaxIters: 400, Seed: 12})
	if err != nil {
		t.Fatalf("Optimize focused: %v", err)
	}
	if focused.MeanExposure[0] >= uniform.MeanExposure[0] {
		t.Errorf("focused exposure at PoI 0 = %v not below uniform %v",
			focused.MeanExposure[0], uniform.MeanExposure[0])
	}
	// Validation paths.
	if _, err := Optimize(scn, Objectives{PerPoIAlpha: []float64{1}},
		Options{MaxIters: 5}); !errors.Is(err, ErrObjectives) {
		t.Errorf("short per-PoI alpha err = %v", err)
	}
	if _, err := Optimize(scn, Objectives{PerPoIBeta: []float64{1, 1}},
		Options{MaxIters: 5}); !errors.Is(err, ErrObjectives) {
		t.Errorf("short per-PoI beta err = %v", err)
	}
	if _, err := Optimize(scn, Objectives{PerPoIAlpha: []float64{0, 0, 0, 0}},
		Options{MaxIters: 5}); !errors.Is(err, ErrObjectives) {
		t.Errorf("all-zero weights err = %v", err)
	}
}

func TestOptimizeProducesValidPlan(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	plan, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1}, Options{
		MaxIters: 200, Seed: 3, RecordTrace: true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	n := len(scn.PoIs)
	if len(plan.TransitionMatrix) != n {
		t.Fatalf("matrix rows = %d", len(plan.TransitionMatrix))
	}
	for i, row := range plan.TransitionMatrix {
		var sum float64
		for _, v := range row {
			if v <= 0 || v >= 1 {
				t.Errorf("p[%d] entry %v outside (0,1)", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	var piSum float64
	for _, v := range plan.Stationary {
		piSum += v
	}
	if math.Abs(piSum-1) > 1e-9 {
		t.Errorf("π sums to %v", piSum)
	}
	if plan.Cost <= 0 || plan.EBar <= 0 {
		t.Errorf("metrics: %+v", plan)
	}
	if len(plan.Trace) == 0 {
		t.Error("trace missing despite RecordTrace")
	}
	if plan.Iterations == 0 {
		t.Error("zero iterations")
	}
	// Optimization improved on the first iterate.
	if plan.Trace[0].Cost < plan.Cost {
		t.Errorf("final cost %v worse than first %v", plan.Cost, plan.Trace[0].Cost)
	}
}

func TestOptimizeAlgorithms(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	for _, alg := range []Algorithm{BasicDescent, AdaptiveDescent, PerturbedDescent} {
		plan, err := Optimize(scn, Objectives{Alpha: 1}, Options{Algorithm: alg, MaxIters: 50, Seed: 1})
		if err != nil {
			t.Errorf("algorithm %d: %v", alg, err)
			continue
		}
		if plan.Cost < 0 {
			t.Errorf("algorithm %d: negative cost", alg)
		}
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	run := func() *Plan {
		p, err := Optimize(scn, Objectives{Beta: 1}, Options{MaxIters: 60, Seed: 17})
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		return p
	}
	if a, b := run(), run(); a.Cost != b.Cost {
		t.Errorf("same seed gave different costs: %v vs %v", a.Cost, b.Cost)
	}
}

func TestEvaluateMatrixAgainstOptimized(t *testing.T) {
	scn, err := PaperTopology(3)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1}
	plan, err := Optimize(scn, obj, Options{MaxIters: 400, Seed: 5})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	baseline, err := MetropolisBaseline(scn)
	if err != nil {
		t.Fatalf("MetropolisBaseline: %v", err)
	}
	basePlan, err := EvaluateMatrix(scn, obj, baseline)
	if err != nil {
		t.Fatalf("EvaluateMatrix: %v", err)
	}
	if plan.Cost > basePlan.Cost {
		t.Errorf("optimized cost %v worse than MH baseline %v", plan.Cost, basePlan.Cost)
	}
	// The MH baseline hits the target visit distribution.
	for i, pi := range basePlan.Stationary {
		if math.Abs(pi-scn.Target[i]) > 1e-9 {
			t.Errorf("baseline π_%d = %v, target %v", i, pi, scn.Target[i])
		}
	}
}

func TestEvaluateMatrixRejectsBadMatrix(t *testing.T) {
	scn, err := LineScenario("l", 3, []float64{0.5, 0.25, 0.25})
	if err != nil {
		t.Fatalf("LineScenario: %v", err)
	}
	if _, err := EvaluateMatrix(scn, Objectives{Alpha: 1}, [][]float64{{1, 0}, {0, 1}}); err == nil {
		t.Error("expected error for wrong-size matrix")
	}
}

func TestSimulateMatchesAnalytic(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	plan, err := Optimize(scn, Objectives{Alpha: 0, Beta: 1}, Options{MaxIters: 300, Seed: 9})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	rep, err := Simulate(scn, plan, SimOptions{Steps: 200000, Seed: 13, Exposure: StepExposure})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// Realized coverage shares track the analytic plan values.
	for i := range rep.CoverageShare {
		if math.Abs(rep.CoverageShare[i]-plan.CoverageShare[i]) > 0.02 {
			t.Errorf("share[%d]: simulated %v, analytic %v", i, rep.CoverageShare[i], plan.CoverageShare[i])
		}
	}
	// Realized unit-step exposure tracks Ē_i.
	for i := range rep.MeanExposure {
		rel := math.Abs(rep.MeanExposure[i]-plan.MeanExposure[i]) / plan.MeanExposure[i]
		if rel > 0.05 {
			t.Errorf("exposure[%d]: simulated %v, analytic %v", i, rep.MeanExposure[i], plan.MeanExposure[i])
		}
	}
}

func TestSimulateReplications(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	baseline, err := MetropolisBaseline(scn)
	if err != nil {
		t.Fatalf("MetropolisBaseline: %v", err)
	}
	rep, err := SimulateMatrix(scn, baseline, SimOptions{Steps: 5000, Seed: 1, Replications: 4})
	if err != nil {
		t.Fatalf("SimulateMatrix: %v", err)
	}
	if len(rep.PerReplication) != 4 {
		t.Fatalf("replication count = %d", len(rep.PerReplication))
	}
	if rep.TotalTime <= 0 {
		t.Error("no elapsed time")
	}
}

func TestSimulateNilPlan(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	if _, err := Simulate(scn, nil, SimOptions{}); err == nil {
		t.Error("expected error for nil plan")
	}
}

// TestWarmStartImprovesLargeProblem verifies the documented warm-start
// behavior: on a 9-PoI grid, seeding the search with the MH baseline
// reaches a cost at least as good as a random cold start.
func TestWarmStartImprovesLargeProblem(t *testing.T) {
	scn, err := PaperTopology(4)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1e-5}
	cold, err := Optimize(scn, obj, Options{MaxIters: 400, Seed: 11})
	if err != nil {
		t.Fatalf("Optimize cold: %v", err)
	}
	warmStart, err := MetropolisBaseline(scn)
	if err != nil {
		t.Fatalf("MetropolisBaseline: %v", err)
	}
	warm, err := Optimize(scn, obj, Options{MaxIters: 400, Seed: 11, InitialMatrix: warmStart})
	if err != nil {
		t.Fatalf("Optimize warm: %v", err)
	}
	if warm.Cost > cold.Cost*1.05 {
		t.Errorf("warm-start cost %v worse than cold start %v", warm.Cost, cold.Cost)
	}
}

func TestWarmStartRejectsRaggedMatrix(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	_, err = Optimize(scn, Objectives{Alpha: 1}, Options{
		MaxIters: 5, InitialMatrix: [][]float64{{1, 0}, {0}},
	})
	if err == nil {
		t.Error("expected error for ragged warm-start matrix")
	}
}

// TestObstaclesLengthenTravel verifies the public routing surface: an
// obstacle across the direct path raises the optimized schedule's energy
// (mean travel distance) relative to open terrain, and construction
// fails when a PoI is unreachable.
func TestObstaclesLengthenTravel(t *testing.T) {
	base := Scenario{
		Name: "corridor",
		PoIs: []PoI{
			{X: 0.5, Y: 0.5},
			{X: 3.5, Y: 0.5},
		},
		Target: []float64{0.5, 0.5},
	}
	walled := base
	walled.Obstacles = []Obstacle{{MinX: 1.8, MinY: -1, MaxX: 2.2, MaxY: 2}}

	obj := Objectives{Alpha: 0, Beta: 1}
	openPlan, err := Optimize(base, obj, Options{MaxIters: 100, Seed: 1})
	if err != nil {
		t.Fatalf("Optimize open: %v", err)
	}
	walledPlan, err := Optimize(walled, obj, Options{MaxIters: 100, Seed: 1})
	if err != nil {
		t.Fatalf("Optimize walled: %v", err)
	}
	// The exposure-only objective keeps both sensors commuting; the
	// walled one travels farther per transition.
	if walledPlan.Energy <= openPlan.Energy {
		t.Errorf("walled energy %v not above open %v", walledPlan.Energy, openPlan.Energy)
	}
	// Exposure in *time* also worsens behind the wall.
	if walledPlan.EBar <= openPlan.EBar {
		t.Logf("note: walled Ē %v vs open %v (step-counted exposure may tie)", walledPlan.EBar, openPlan.EBar)
	}

	blocked := base
	blocked.Obstacles = []Obstacle{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}} // swallows PoI 1
	if _, err := Optimize(blocked, obj, Options{MaxIters: 5}); !errors.Is(err, ErrScenario) {
		t.Errorf("swallowed PoI err = %v, want ErrScenario", err)
	}

	degenerate := base
	degenerate.Obstacles = []Obstacle{{MinX: 1, MinY: 1, MaxX: 1, MaxY: 2}}
	if _, err := Optimize(degenerate, obj, Options{MaxIters: 5}); !errors.Is(err, ErrScenario) {
		t.Errorf("degenerate obstacle err = %v, want ErrScenario", err)
	}
}

// TestObstacleSimulationConsistency: the simulator uses the routed
// timing tables, so analytic and simulated metrics still agree with
// obstacles present.
func TestObstacleSimulationConsistency(t *testing.T) {
	scn := Scenario{
		Name: "obstacle-sim",
		PoIs: []PoI{
			{X: 0.5, Y: 0.5},
			{X: 2.5, Y: 0.5},
			{X: 1.5, Y: 2.5},
		},
		Target:    []float64{0.4, 0.4, 0.2},
		Obstacles: []Obstacle{{MinX: 1.3, MinY: 0, MaxX: 1.7, MaxY: 1.2}},
	}
	plan, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1e-3}, Options{MaxIters: 250, Seed: 3})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	rep, err := Simulate(scn, plan, SimOptions{Steps: 150000, Seed: 5})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	for i := range rep.CoverageShare {
		if math.Abs(rep.CoverageShare[i]-plan.CoverageShare[i]) > 0.02 {
			t.Errorf("share[%d]: simulated %v vs analytic %v",
				i, rep.CoverageShare[i], plan.CoverageShare[i])
		}
	}
}

// TestEnergyObjectiveReducesMovement reproduces the paper's observation
// that a reduced exposure weight (or an explicit energy term) lets the
// sensor move less.
func TestEnergyObjectiveReducesMovement(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	noEnergy, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1e-4}, Options{MaxIters: 300, Seed: 21})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	withEnergy, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1e-4, EnergyWeight: 10, EnergyTarget: 0},
		Options{MaxIters: 300, Seed: 21})
	if err != nil {
		t.Fatalf("Optimize with energy: %v", err)
	}
	if withEnergy.Energy >= noEnergy.Energy {
		t.Errorf("energy-weighted travel %v not below unweighted %v",
			withEnergy.Energy, noEnergy.Energy)
	}
}

// TestEntropyObjectiveRaisesEntropy verifies the §VII entropy extension
// end to end through the public API.
func TestEntropyObjectiveRaisesEntropy(t *testing.T) {
	scn, err := PaperTopology(1)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	plain, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1e-4}, Options{MaxIters: 300, Seed: 23})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	random, err := Optimize(scn, Objectives{Alpha: 1, Beta: 1e-4, EntropyWeight: 1},
		Options{MaxIters: 300, Seed: 23})
	if err != nil {
		t.Fatalf("Optimize with entropy: %v", err)
	}
	if random.Entropy <= plain.Entropy {
		t.Errorf("entropy-weighted H %v not above plain %v", random.Entropy, plain.Entropy)
	}
}

// TestWarmStartBitIdenticalToInternal pins the public warm-start plumbing:
// Optimize with Options.InitialMatrix performs exactly the run the internal
// descent engine performs with Options.Initial — same matrix, same cost,
// bit for bit.
func TestWarmStartBitIdenticalToInternal(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1e-3}
	warm, err := MetropolisBaseline(scn)
	if err != nil {
		t.Fatalf("MetropolisBaseline: %v", err)
	}
	plan, err := Optimize(scn, obj, Options{MaxIters: 300, Seed: 77, InitialMatrix: warm})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	eng, err := planner(scn, obj)
	if err != nil {
		t.Fatalf("planner: %v", err)
	}
	initial, err := mat.NewFromRows(warm)
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	res, err := eng.OptimizeContext(context.Background(), descent.Options{
		Variant:  descent.Perturbed,
		MaxIters: 300,
		Seed:     77,
		Initial:  []*mat.Matrix{initial},
	})
	if err != nil {
		t.Fatalf("internal OptimizeContext: %v", err)
	}
	if plan.Cost != res.Eval.U {
		t.Fatalf("cost = %v, want internal %v", plan.Cost, res.Eval.U)
	}
	for i := range plan.TransitionMatrix {
		row := res.P.Row(i)
		for j := range plan.TransitionMatrix[i] {
			if plan.TransitionMatrix[i][j] != row[j] {
				t.Fatalf("matrix[%d][%d] = %v, want %v (internal)",
					i, j, plan.TransitionMatrix[i][j], row[j])
			}
		}
	}
}

// TestWarmStartValidation: warm starts of the wrong dimension or with
// non-stochastic rows are rejected up front by the public API.
func TestWarmStartValidation(t *testing.T) {
	scn, err := LineScenario("warm-val", 3, []float64{0.3, 0.3, 0.4})
	if err != nil {
		t.Fatalf("LineScenario: %v", err)
	}
	obj := Objectives{Alpha: 1}
	cases := map[string][][]float64{
		"wrong dimension": {{0.5, 0.5}, {0.5, 0.5}},
		"non-stochastic":  {{0.9, 0.9, 0.9}, {1, 0, 0}, {1, 0, 0}},
		"negative entry":  {{1.5, -0.5, 0}, {1, 0, 0}, {0, 0, 1}},
	}
	for name, m := range cases {
		if _, err := Optimize(scn, obj, Options{MaxIters: 5, InitialMatrix: m}); !errors.Is(err, ErrObjectives) {
			t.Errorf("%s: err = %v, want ErrObjectives", name, err)
		}
		if _, err := OptimizeBest(scn, obj, Options{MaxIters: 5, InitialMatrix: m}, 2); !errors.Is(err, ErrObjectives) {
			t.Errorf("%s (best): err = %v, want ErrObjectives", name, err)
		}
	}
}

func TestOptimizeSolverKnob(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1}
	dense, err := Optimize(scn, obj, Options{MaxIters: 60, Seed: 5, Solver: "dense"})
	if err != nil {
		t.Fatalf("Optimize dense: %v", err)
	}
	// "" is the dense default and must be bit-identical to "dense".
	def, err := Optimize(scn, obj, Options{MaxIters: 60, Seed: 5})
	if err != nil {
		t.Fatalf("Optimize default: %v", err)
	}
	if dense.Cost != def.Cost {
		t.Errorf("default solver diverged from dense: %v vs %v", def.Cost, dense.Cost)
	}
	sparse, err := Optimize(scn, obj, Options{MaxIters: 60, Seed: 5, Solver: "sparse"})
	if err != nil {
		t.Fatalf("Optimize sparse: %v", err)
	}
	// The sparse run follows its own (tolerance-close) trajectory; it only
	// has to produce a valid, comparable plan.
	if sparse.Cost <= 0 || math.IsNaN(sparse.Cost) || math.IsInf(sparse.Cost, 0) {
		t.Errorf("sparse cost = %v", sparse.Cost)
	}
	rel := math.Abs(sparse.Cost-dense.Cost) / math.Max(1, math.Abs(dense.Cost))
	if rel > 0.2 {
		t.Errorf("sparse cost %v far from dense %v (rel %v)", sparse.Cost, dense.Cost, rel)
	}
	if _, err := Optimize(scn, obj, Options{MaxIters: 5, Solver: "cholesky"}); err == nil {
		t.Error("unknown solver accepted")
	}
}
