package coverage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fleetObjectives is the shared objective mix for the fleet tests —
// coverage-dominant with a light exposure term, matching the paper's
// recommended operating point.
func fleetObjectives() Objectives {
	return Objectives{Alpha: 1, Beta: 1e-3}
}

func mustFleetFP(t *testing.T, scn Scenario, obj Objectives, k int, resp [][]float64) Fingerprint {
	t.Helper()
	fp, err := FleetFingerprint(scn, obj, k, resp)
	if err != nil {
		t.Fatalf("FleetFingerprint: %v", err)
	}
	return fp
}

// TestFleetFingerprintStability pins the fleet digest for a fixed input.
// Like TestFingerprintStabilityContract, this hex string is an on-disk
// contract: a change here means the canonical fleet encoding changed and
// fleetFingerprintVersion MUST be bumped.
func TestFleetFingerprintStability(t *testing.T) {
	scn := fpScenario(t)
	got := mustFleetFP(t, scn, fleetObjectives(), 2, nil)
	const want = Fingerprint("fc2ba7a3a8ea0a9bfef4e26d9d5bc6996ecf4513ed455024ce9c78c8ad363677")
	if got != want {
		t.Errorf("fleet fingerprint = %s, want %s\n(canonical encoding changed: bump fleetFingerprintVersion)", got, want)
	}
}

func TestFleetFingerprintInvariances(t *testing.T) {
	scn := fpScenario(t)
	obj := fleetObjectives()
	m := len(scn.PoIs)

	// Nil responsibility and the explicit uniform split are the same
	// problem.
	uniform := make([][]float64, 3)
	for s := range uniform {
		row := make([]float64, m)
		for i := range row {
			row[i] = 1.0 / 3.0
		}
		uniform[s] = row
	}
	if mustFleetFP(t, scn, obj, 3, nil) != mustFleetFP(t, scn, obj, 3, uniform) {
		t.Error("nil responsibility and explicit uniform 1/K hash differently")
	}

	// The fleet domain is disjoint from the single-sensor domain even for
	// K = 1: the plan shapes differ.
	single := mustFP(t, scn, obj)
	if Fingerprint(mustFleetFP(t, scn, obj, 1, nil)) == single {
		t.Error("K=1 fleet fingerprint collided with the single-sensor fingerprint")
	}

	// Fleet size and responsibility both change the problem.
	if mustFleetFP(t, scn, obj, 2, nil) == mustFleetFP(t, scn, obj, 3, nil) {
		t.Error("K=2 and K=3 hash identically")
	}
	skewed := [][]float64{{0.9, 0.9, 0.1, 0.1}, {0.1, 0.1, 0.9, 0.9}}
	if mustFleetFP(t, scn, obj, 2, nil) == mustFleetFP(t, scn, obj, 2, skewed) {
		t.Error("uniform and skewed responsibility hash identically")
	}

	// Malformed inputs are rejected.
	if _, err := FleetFingerprint(scn, obj, 0, nil); !errors.Is(err, ErrScenario) {
		t.Errorf("zero sensors: err = %v, want ErrScenario", err)
	}
	if _, err := FleetFingerprint(scn, obj, 2, skewed[:1]); !errors.Is(err, ErrScenario) {
		t.Errorf("short responsibility: err = %v, want ErrScenario", err)
	}
	short := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	if _, err := FleetFingerprint(scn, obj, 2, short); !errors.Is(err, ErrScenario) {
		t.Errorf("short responsibility row: err = %v, want ErrScenario", err)
	}
}

// goodFleetPlan returns a small valid fleet plan for the persistence
// tests.
func goodFleetPlan() *Plan {
	p := goodPlan()
	p.Fleet = &FleetPlan{
		Sensors: 2,
		TransitionMatrices: [][][]float64{
			{{0.2, 0.8}, {0.6, 0.4}},
			{{0.7, 0.3}, {0.5, 0.5}},
		},
		Responsibility: [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		UnionShare:     []float64{0.7, 0.8},
		MinExposure:    []float64{1.5, 1.2},
	}
	return p
}

// TestFleetPlanRoundTrip: a fleet plan survives the write/read cycle
// with its extension intact.
func TestFleetPlanRoundTrip(t *testing.T) {
	plan := goodFleetPlan()
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatalf("WritePlan: %v", err)
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatalf("ReadPlan: %v", err)
	}
	if got.Fleet == nil {
		t.Fatal("round trip dropped the fleet extension")
	}
	if got.Fleet.Sensors != 2 || len(got.Fleet.TransitionMatrices) != 2 {
		t.Errorf("fleet extension corrupted: %+v", got.Fleet)
	}
	if got.Fleet.TransitionMatrices[1][0][0] != 0.7 {
		t.Errorf("sensor 1 matrix changed: %v", got.Fleet.TransitionMatrices[1])
	}
	if got.Fleet.UnionShare[1] != 0.8 || got.Fleet.MinExposure[0] != 1.5 {
		t.Errorf("fleet vectors changed: %+v", got.Fleet)
	}
}

// TestFleetPlanRejectsMalformed: every corrupted fleet field is rejected
// on both the write and the read side.
func TestFleetPlanRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"zero sensors", func(p *Plan) { p.Fleet.Sensors = 0 }},
		{"sensor count mismatch", func(p *Plan) { p.Fleet.Sensors = 3 }},
		{"NaN in sensor matrix", func(p *Plan) {
			p.Fleet.TransitionMatrices[1][0][0] = math.NaN()
		}},
		{"Inf in sensor matrix", func(p *Plan) {
			p.Fleet.TransitionMatrices[0][1][1] = math.Inf(1)
		}},
		{"non-stochastic sensor row", func(p *Plan) {
			p.Fleet.TransitionMatrices[1][0] = []float64{0.9, 0.9}
		}},
		{"sensor matrix wrong dimension", func(p *Plan) {
			p.Fleet.TransitionMatrices[0] = [][]float64{{1}}
		}},
		{"responsibility row count", func(p *Plan) {
			p.Fleet.Responsibility = p.Fleet.Responsibility[:1]
		}},
		{"responsibility row length", func(p *Plan) {
			p.Fleet.Responsibility[0] = []float64{1}
		}},
		{"NaN responsibility", func(p *Plan) {
			p.Fleet.Responsibility[1][0] = math.NaN()
		}},
		{"negative responsibility", func(p *Plan) {
			p.Fleet.Responsibility[0][1] = -0.25
		}},
		{"unionShare length", func(p *Plan) { p.Fleet.UnionShare = []float64{0.5} }},
		{"Inf unionShare", func(p *Plan) { p.Fleet.UnionShare[0] = math.Inf(-1) }},
		{"minExposure length", func(p *Plan) { p.Fleet.MinExposure = []float64{1, 2, 3} }},
		{"negative minExposure", func(p *Plan) { p.Fleet.MinExposure[1] = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := goodFleetPlan()
			tc.mutate(plan)
			var buf bytes.Buffer
			if err := WritePlan(&buf, plan); !errors.Is(err, ErrPersist) {
				t.Errorf("WritePlan err = %v, want ErrPersist", err)
			}
			// The read side must also reject a file that was written
			// before the corruption.
			buf.Reset()
			if err := WritePlan(&buf, goodFleetPlan()); err != nil {
				t.Fatalf("WritePlan(good): %v", err)
			}
		})
	}
}

// TestFleetPlanRejectsTruncated: a fleet plan blob cut mid-stream fails
// cleanly with ErrPersist.
func TestFleetPlanRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlan(&buf, goodFleetPlan()); err != nil {
		t.Fatalf("WritePlan: %v", err)
	}
	blob := buf.String()
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		cut := blob[:int(float64(len(blob))*frac)]
		if _, err := ReadPlan(strings.NewReader(cut)); !errors.Is(err, ErrPersist) {
			t.Errorf("truncated at %v: err = %v, want ErrPersist", frac, err)
		}
	}
}

// TestOptimizeFleetDeterministic: same seed, same plan — including every
// sensor matrix — and the plan's compatibility fields mirror the fleet
// extension.
func TestOptimizeFleetDeterministic(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	opts := Options{MaxIters: 40, Seed: 7, RecordTrace: true, Workers: 1}
	a, err := OptimizeFleet(scn, fleetObjectives(), opts, 2, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet: %v", err)
	}
	b, err := OptimizeFleet(scn, fleetObjectives(), opts, 2, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet: %v", err)
	}
	if a.Cost != b.Cost || a.DeltaC != b.DeltaC {
		t.Errorf("fleet optimization not deterministic: %v vs %v", a.Cost, b.Cost)
	}
	if a.Fleet == nil || b.Fleet == nil {
		t.Fatal("missing fleet extension")
	}
	for s := range a.Fleet.TransitionMatrices {
		for i := range a.Fleet.TransitionMatrices[s] {
			for j := range a.Fleet.TransitionMatrices[s][i] {
				if a.Fleet.TransitionMatrices[s][i][j] != b.Fleet.TransitionMatrices[s][i][j] {
					t.Fatalf("sensor %d matrices diverged", s)
				}
			}
		}
	}
	// Compatibility contract: the single-sensor-shaped fields mirror
	// sensor 0 and the fleet metrics.
	for i := range a.TransitionMatrix {
		for j := range a.TransitionMatrix[i] {
			if a.TransitionMatrix[i][j] != a.Fleet.TransitionMatrices[0][i][j] {
				t.Fatal("Plan.TransitionMatrix is not sensor 0's matrix")
			}
		}
	}
	for i := range a.CoverageShare {
		if a.CoverageShare[i] != a.Fleet.UnionShare[i] {
			t.Fatal("Plan.CoverageShare is not the union share")
		}
		if a.MeanExposure[i] != a.Fleet.MinExposure[i] {
			t.Fatal("Plan.MeanExposure is not the min exposure")
		}
	}
	// The fleet plan validates and persists as-is.
	var buf bytes.Buffer
	if err := WritePlan(&buf, a); err != nil {
		t.Errorf("optimized fleet plan failed validation: %v", err)
	}
}

// TestOptimizeMatchesOneSensorFleet: a single-sensor search is the K = 1
// case of the joint objective, so Optimize and OptimizeFleet with one
// sensor return the same matrix, cost and iteration count bit for bit on
// every paper topology and both solvers. Only the envelope differs: the
// single-sensor plan carries no Fleet block.
func TestOptimizeMatchesOneSensorFleet(t *testing.T) {
	for topo := 1; topo <= 4; topo++ {
		for _, solver := range []string{"dense", "sparse"} {
			t.Run(fmt.Sprintf("topology%d/%s", topo, solver), func(t *testing.T) {
				scn, err := PaperTopology(topo)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{MaxIters: 150, Seed: 11, Solver: solver}
				single, err := Optimize(scn, fleetObjectives(), opts)
				if err != nil {
					t.Fatalf("Optimize: %v", err)
				}
				one, err := OptimizeFleet(scn, fleetObjectives(), opts, 1, nil)
				if err != nil {
					t.Fatalf("OptimizeFleet: %v", err)
				}
				if single.Fleet != nil || one.Fleet == nil || one.Fleet.Sensors != 1 {
					t.Fatalf("envelopes: single fleet block %v, one-sensor fleet block %v", single.Fleet, one.Fleet)
				}
				if math.Float64bits(single.Cost) != math.Float64bits(one.Cost) {
					t.Errorf("cost %v, one-sensor fleet %v", single.Cost, one.Cost)
				}
				if single.Iterations != one.Iterations {
					t.Errorf("iterations %d, one-sensor fleet %d", single.Iterations, one.Iterations)
				}
				for i, row := range single.TransitionMatrix {
					for j, v := range row {
						if w := one.TransitionMatrix[i][j]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("p[%d][%d] = %v, one-sensor fleet %v", i, j, v, w)
						}
					}
				}
			})
		}
	}
}

// TestOptimizeFleetAdaptive runs the V2+V3 variant on a K = 2 fleet
// through the one descent loop: every iteration before the last takes a
// positive accepted step and the joint cost never rises, and the run
// stops before its budget at the first line search that finds Δt* = 0,
// recorded as a zero step that leaves the stack unchanged. The V1
// variant is accepted for a fleet as well.
func TestOptimizeFleetAdaptive(t *testing.T) {
	// With an entropy reward the adaptive search on a three-PoI line
	// stops within a few dozen iterations; at the fleet objectives alone
	// it is still creeping down after thousands.
	scn, err := LineScenario("line-3", 3, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	if err != nil {
		t.Fatalf("LineScenario: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1e-3, EntropyWeight: 0.1}
	const budget = 500
	var events []IterationEvent
	opts := Options{Algorithm: AdaptiveDescent, MaxIters: budget, Seed: 1,
		OnIteration: func(e IterationEvent) { events = append(events, e) }}
	plan, err := OptimizeFleet(scn, obj, opts, 2, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet adaptive: %v", err)
	}
	if len(events) == 0 || !plan.Converged || plan.Iterations >= budget {
		t.Fatalf("%d events, converged %v after %d iterations: want a stop before %d",
			len(events), plan.Converged, plan.Iterations, budget)
	}
	last := events[len(events)-1]
	if last.Iteration != plan.Iterations || last.Step != 0 || last.Accepted || last.Probes == 0 {
		t.Errorf("last event %+v: want iteration %d with Δt* = 0 from a search, not accepted", last, plan.Iterations)
	}
	for i, e := range events[:len(events)-1] {
		if !e.Accepted || !(e.Step > 0) {
			t.Errorf("iteration %d: step %v accepted %v before the stop", e.Iteration, e.Step, e.Accepted)
		}
		if i > 0 && e.Cost > events[i-1].Cost {
			t.Errorf("iteration %d: U rose %v -> %v", e.Iteration, events[i-1].Cost, e.Cost)
		}
	}
	if last.Cost != events[max(0, len(events)-2)].Cost || plan.Cost != last.Cost {
		t.Errorf("stop changed U: %v -> %v, plan %v", events[max(0, len(events)-2)].Cost, last.Cost, plan.Cost)
	}
	t.Logf("adaptive K = 2: %d iterations, U %v", plan.Iterations, plan.Cost)

	basic, err := OptimizeFleet(scn, obj, Options{Algorithm: BasicDescent, MaxIters: 50, Seed: 1}, 2, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet basic: %v", err)
	}
	if math.IsNaN(basic.Cost) || math.IsInf(basic.Cost, 0) {
		t.Errorf("basic fleet cost %v", basic.Cost)
	}
}

func TestOptimizeFleetRejects(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := fleetObjectives()
	if _, err := OptimizeFleet(scn, obj, Options{Solver: "qr"}, 2, nil); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := OptimizeFleet(scn, obj, Options{}, 0, nil); err == nil {
		t.Error("zero sensors accepted")
	}
	bad := Options{InitialMatrices: [][][]float64{{{1}}}}
	if _, err := OptimizeFleet(scn, obj, bad, 2, nil); err == nil {
		t.Error("wrong-length InitialMatrices accepted")
	}
	if _, err := OptimizeFleetBest(scn, obj, Options{}, 2, nil, 0); err == nil {
		t.Error("zero restarts accepted")
	}
}

// TestOptimizeFleetWarmStart: warm-starting from a previous fleet's
// matrices is accepted and never worse than that fleet's own cost.
func TestOptimizeFleetWarmStart(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := fleetObjectives()
	cold, err := OptimizeFleet(scn, obj, Options{MaxIters: 60, Seed: 3, Workers: 1}, 2, nil)
	if err != nil {
		t.Fatalf("cold OptimizeFleet: %v", err)
	}
	warm, err := OptimizeFleet(scn, obj, Options{
		MaxIters: 60, Seed: 4, Workers: 1,
		InitialMatrices: cold.Fleet.TransitionMatrices,
	}, 2, nil)
	if err != nil {
		t.Fatalf("warm OptimizeFleet: %v", err)
	}
	if warm.Cost > cold.Cost*(1+1e-9)+1e-12 {
		t.Errorf("warm start regressed: %v from %v", warm.Cost, cold.Cost)
	}
}

// TestEvaluateFleetMatricesMatchesOptimize: re-evaluating an optimized
// stack reproduces the optimizer's own metrics exactly.
func TestEvaluateFleetMatricesMatchesOptimize(t *testing.T) {
	scn, err := PaperTopology(3)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := fleetObjectives()
	plan, err := OptimizeFleet(scn, obj, Options{MaxIters: 50, Seed: 11, Workers: 1}, 2, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet: %v", err)
	}
	re, err := EvaluateFleetMatrices(scn, obj, plan.Fleet.TransitionMatrices, nil)
	if err != nil {
		t.Fatalf("EvaluateFleetMatrices: %v", err)
	}
	if re.Cost != plan.Cost || re.DeltaC != plan.DeltaC || re.EBar != plan.EBar {
		t.Errorf("re-evaluation diverged: cost %v vs %v, deltaC %v vs %v",
			re.Cost, plan.Cost, re.DeltaC, plan.DeltaC)
	}
}

// TestFleetCrossValidation is the paper-level acceptance check on all
// four reconstructed topologies: for K ∈ {2, 3},
//
//  1. the jointly optimized fleet's union ΔC (measured by exact
//     simulation) is no worse than replicating the single-sensor optimum
//     across the fleet, and
//  2. the analytic union-share prediction 1 − Π_s(1 − C̄_i^(s)) agrees
//     with the simulated union coverage per PoI within 0.05 absolute —
//     the analytic shares are exact in the long-run Markov measure, the
//     simulation measures physical time over a finite horizon, and the
//     independence composition across sensors holds only in expectation,
//     so the tolerance is wider than the single-sensor 0.02.
func TestFleetCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is minutes of optimization in -short mode")
	}
	obj := fleetObjectives()
	for topo := 1; topo <= 4; topo++ {
		scn, err := PaperTopology(topo)
		if err != nil {
			t.Fatalf("PaperTopology(%d): %v", topo, err)
		}
		// The 3×3 grid's stacked search space (K·81 dimensions) needs a
		// larger budget than the 3- and 4-PoI lines.
		iters, jointIters := 250, 250
		if len(scn.PoIs) > 4 {
			iters, jointIters = 400, 900
		}
		single, err := Optimize(scn, obj, Options{MaxIters: iters, Seed: 17})
		if err != nil {
			t.Fatalf("Optimize(topo %d): %v", topo, err)
		}
		for _, k := range []int{2, 3} {
			// Two-start joint search, picked by analytic cost: a cold
			// random start plus a warm start from the replicated
			// single-sensor stack. The warm start matters on the larger
			// grid (the random stack lands in a poor basin of the
			// K·81-dimensional space); the cold start matters on the
			// lines (the replicated basin is a shallow trap there).
			replicated := make([][][]float64, k)
			for s := range replicated {
				replicated[s] = single.TransitionMatrix
			}
			cold, err := OptimizeFleet(scn, obj, Options{
				MaxIters: jointIters, Seed: 17,
			}, k, nil)
			if err != nil {
				t.Fatalf("OptimizeFleet(topo %d, K=%d): %v", topo, k, err)
			}
			warm, err := OptimizeFleet(scn, obj, Options{
				MaxIters: jointIters, Seed: 17, InitialMatrices: replicated,
			}, k, nil)
			if err != nil {
				t.Fatalf("OptimizeFleet(topo %d, K=%d, warm): %v", topo, k, err)
			}
			joint := cold
			if warm.Cost < cold.Cost {
				joint = warm
			}
			simOpts := SimOptions{Steps: 60000, Seed: 23}
			repSim, err := SimulateFleet(scn, single, k, simOpts)
			if err != nil {
				t.Fatalf("SimulateFleet replicated: %v", err)
			}
			jointSim, err := SimulateFleet(scn, joint, 0, simOpts)
			if err != nil {
				t.Fatalf("SimulateFleet joint: %v", err)
			}
			if jointSim.DeltaC > repSim.DeltaC {
				t.Errorf("topo %d K=%d: joint union ΔC %v worse than replicated %v",
					topo, k, jointSim.DeltaC, repSim.DeltaC)
			}
			for i := range jointSim.CoverageShare {
				if math.Abs(jointSim.CoverageShare[i]-joint.Fleet.UnionShare[i]) > 0.05 {
					t.Errorf("topo %d K=%d PoI %d: simulated union %v vs analytic %v",
						topo, k, i, jointSim.CoverageShare[i], joint.Fleet.UnionShare[i])
				}
			}
		}
	}
}

// TestSimulateFleetDeterminism is the regression contract for fleet
// simulation reproducibility: the same seed must produce bit-identical
// reports across repeated runs and across any Workers setting, because
// every sensor's stream is pre-split from the master seed before any
// goroutine runs.
func TestSimulateFleetDeterminism(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	plan, err := OptimizeFleet(scn, fleetObjectives(), Options{MaxIters: 200, Seed: 5}, 3, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet: %v", err)
	}

	canon := func(workers int) string {
		rep, err := SimulateFleet(scn, plan, 0, SimOptions{
			Steps: 30000, Seed: 17, Workers: workers,
		})
		if err != nil {
			t.Fatalf("SimulateFleet (workers %d): %v", workers, err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return string(blob)
	}

	want := canon(0)
	for _, workers := range []int{0, 1, 2, 7} {
		for run := 0; run < 2; run++ {
			if got := canon(workers); got != want {
				t.Fatalf("workers=%d run=%d diverged:\n got %s\nwant %s", workers, run, got, want)
			}
		}
	}
}
