package conformance

import (
	"fmt"
	"math"

	"repro/coverage"
	"repro/internal/rng"
)

// Corpus generation (cmd/confgen). Every family is emitted from a fixed
// PCG seed, so regeneration is reproducible bit-for-bit: same tool, same
// bytes. The invariant bounds below are fixed literals chosen from
// measured runs with generous slack — generation never runs the
// optimizer, so a legitimate optimizer change can retune a bound without
// perturbing the generated geometry.

// genSeedBase anchors the per-family generator seeds.
const genSeedBase uint64 = 0xC0FFEE0000000000

// NamedCorpus pairs a corpus with its on-disk filename.
type NamedCorpus struct {
	Name   string
	Corpus *Corpus
}

// Generate emits the full seeded corpus: the four paper topologies plus
// the generated families (line/ring/grid sweeps, random geometric
// graphs, stochastic-arrival incident mixes, energy-budget variants, the
// β crossover sweep, and the fleet family).
func Generate() ([]NamedCorpus, error) {
	type gen func() (*Corpus, error)
	gens := []struct {
		name string
		gen  gen
	}{
		{"paper-topologies.json", genPaper},
		{"line-sweep.json", genLineSweep},
		{"ring-sweep.json", genRingSweep},
		{"grid-sweep.json", genGridSweep},
		{"random-geometric.json", genRandomGeometric},
		{"incident-arrivals.json", genIncidentArrivals},
		{"energy-budget.json", genEnergyBudget},
		{"beta-crossover.json", genBetaCrossover},
		{"fleet.json", genFleet},
	}
	out := make([]NamedCorpus, 0, len(gens))
	for _, g := range gens {
		c, err := g.gen()
		if err != nil {
			return nil, fmt.Errorf("conformance: generate %s: %v", g.name, err)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("conformance: generated %s is invalid: %v", g.name, err)
		}
		out = append(out, NamedCorpus{Name: g.name, Corpus: c})
	}
	return out, nil
}

func fptr(v float64) *float64 { return &v }

// uniformTarget returns the uniform allocation over n PoIs.
func uniformTarget(n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = 1 / float64(n)
	}
	// Absorb the rounding residue into the last entry so the vector sums
	// to 1 within the topology tolerance for every n.
	var sum float64
	for _, v := range t[:n-1] {
		sum += v
	}
	t[n-1] = 1 - sum
	return t
}

// normalize scales a positive vector to sum to 1.
func normalize(v []float64) []float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	out := make([]float64, len(v))
	var partial float64
	for i := range v[:len(v)-1] {
		out[i] = v[i] / sum
		partial += out[i]
	}
	out[len(v)-1] = 1 - partial
	return out
}

// defaultMatrix is the execution matrix every family exercises: the one
// linear-algebra backend, with restarts run one at a time and four at
// once.
func defaultMatrix() Matrix {
	return Matrix{Solvers: []string{"dense"}, Workers: []int{1, 4}}
}

// genPaper emits the four paper topologies, each with a Metropolis
// baseline twin. The contract: optimization beats the coverage-only
// baseline on the combined cost, results are bit-exact across worker
// counts, and the multi-start shard merge is bit-identical to the
// monolithic run.
func genPaper() (*Corpus, error) {
	c := &Corpus{
		Version: Version,
		Family:  "paper-topologies",
		Description: "The paper's four reconstructed topologies (Fig. 1) under the default " +
			"α=1, β=1e-4 weighting, each paired with its Metropolis–Hastings coverage-only " +
			"baseline. Optimization must beat the baseline on combined cost, and the " +
			"optimized plans must be bit-exact across worker counts and shard merges.",
		Generator: &Generator{Tool: "confgen", Seed: genSeedBase + 1},
		Matrix:    defaultMatrix(),
	}
	c.Matrix.Shards = []int{2, 3}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-4}
	var optimized, baselines []string
	for t := 1; t <= 4; t++ {
		scn, err := coverage.PaperTopology(t)
		if err != nil {
			return nil, err
		}
		opt := fmt.Sprintf("topology-%d", t)
		base := fmt.Sprintf("topology-%d-metropolis", t)
		c.Cases = append(c.Cases,
			Case{
				Name:       opt,
				Scenario:   scn,
				Objectives: obj,
				Run:        Budget{Seed: genSeedBase + uint64(100+t), MaxIters: 400, Restarts: 3},
			},
			Case{
				Name:       base,
				Mode:       ModeMetropolis,
				Scenario:   scn,
				Objectives: obj,
				Run:        Budget{Seed: 0},
			},
		)
		optimized = append(optimized, opt)
		baselines = append(baselines, base)
		c.Invariants = append(c.Invariants, Invariant{
			Type:  InvCostOrder,
			Cases: []string{opt, base},
		})
	}
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: optimized},
		Invariant{Type: InvBitExact, Over: OverShards, Cases: []string{"topology-1", "topology-3"}},
		Invariant{Type: InvBound, Metric: "deltaC", Max: fptr(0.75), Cases: optimized},
		Invariant{Type: InvBound, Metric: "eBar", Max: fptr(90), Cases: append(append([]string(nil), optimized...), baselines...)},
	)
	return c, nil
}

// genLineSweep sweeps the line topology length under a uniform target:
// the aggregate exposure must grow with the number of PoIs (one sensor
// spread over more sites), bit-exactly across worker counts.
func genLineSweep() (*Corpus, error) {
	c := &Corpus{
		Version: Version,
		Family:  "line-sweep",
		Description: "Uniform-target line topologies of increasing length n=4..8. A single " +
			"sensor spread over more PoIs leaves each exposed longer, so ĒBar must be " +
			"nondecreasing in n.",
		Generator: &Generator{Tool: "confgen", Seed: genSeedBase + 2},
		Matrix:    defaultMatrix(),
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-3}
	var names []string
	for i, n := range []int{4, 5, 6, 7, 8} {
		scn, err := coverage.LineScenario(fmt.Sprintf("line-%d", n), n, uniformTarget(n))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("line-%d", n)
		c.Cases = append(c.Cases, Case{
			Name:       name,
			Scenario:   scn,
			Objectives: obj,
			Run:        Budget{Seed: genSeedBase + uint64(200+i), MaxIters: 300, Restarts: 2},
			Param:      float64(n),
		})
		names = append(names, name)
	}
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvMonotone, Metric: "eBar", Direction: DirNondecreasing, Tolerance: 0.10, Cases: names},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: names},
		Invariant{Type: InvBound, Metric: "deltaC", Max: fptr(0.6), Cases: names},
	)
	return c, nil
}

// genRingSweep is the perimeter-patrol analogue of the line sweep.
func genRingSweep() (*Corpus, error) {
	c := &Corpus{
		Version: Version,
		Family:  "ring-sweep",
		Description: "Uniform-target ring topologies of increasing size n=4..10 (radius n/4). " +
			"ĒBar must be nondecreasing in n; plans bit-exact across worker counts.",
		Generator: &Generator{Tool: "confgen", Seed: genSeedBase + 3},
		Matrix:    defaultMatrix(),
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-3}
	var names []string
	for i, n := range []int{4, 6, 8, 10} {
		scn, err := coverage.RingScenario(fmt.Sprintf("ring-%d", n), n, float64(n)/4, uniformTarget(n))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("ring-%d", n)
		c.Cases = append(c.Cases, Case{
			Name:       name,
			Scenario:   scn,
			Objectives: obj,
			Run:        Budget{Seed: genSeedBase + uint64(300+i), MaxIters: 300, Restarts: 2},
			Param:      float64(n),
		})
		names = append(names, name)
	}
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvMonotone, Metric: "eBar", Direction: DirNondecreasing, Tolerance: 0.10, Cases: names},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: names},
		Invariant{Type: InvBound, Metric: "deltaC", Max: fptr(1.2), Cases: names},
	)
	return c, nil
}

// genGridSweep sweeps grid dimensions under a uniform target.
func genGridSweep() (*Corpus, error) {
	c := &Corpus{
		Version: Version,
		Family:  "grid-sweep",
		Description: "Uniform-target grids 2×2, 2×3, 3×3. ĒBar must be nondecreasing in the " +
			"PoI count; plans bit-exact across worker counts.",
		Generator: &Generator{Tool: "confgen", Seed: genSeedBase + 4},
		Matrix:    defaultMatrix(),
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-3}
	dims := []struct{ r, c int }{{2, 2}, {2, 3}, {3, 3}}
	var names []string
	for i, d := range dims {
		scn, err := coverage.GridScenario(fmt.Sprintf("grid-%dx%d", d.r, d.c), d.r, d.c, uniformTarget(d.r*d.c))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("grid-%dx%d", d.r, d.c)
		c.Cases = append(c.Cases, Case{
			Name:       name,
			Scenario:   scn,
			Objectives: obj,
			Run:        Budget{Seed: genSeedBase + uint64(400+i), MaxIters: 300, Restarts: 2},
			Param:      float64(d.r * d.c),
		})
		names = append(names, name)
	}
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvMonotone, Metric: "eBar", Direction: DirNondecreasing, Tolerance: 0.10, Cases: names},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: names},
		Invariant{Type: InvBound, Metric: "deltaC", Max: fptr(0.6), Cases: names},
	)
	return c, nil
}

// randomScenario places m PoIs uniformly in a w×h area with pairwise
// separation > minSep by rejection sampling, keeping a margin from the
// optional obstacle. The PCG stream makes placement deterministic.
func randomScenario(src *rng.Source, name string, m int, w, h, minSep float64, obstacle *coverage.Obstacle) (coverage.Scenario, error) {
	const margin = 0.3
	pois := make([]coverage.PoI, 0, m)
	for attempts := 0; len(pois) < m; attempts++ {
		if attempts > 100000 {
			return coverage.Scenario{}, fmt.Errorf("rejection sampling stuck placing %d PoIs in %gx%g", m, w, h)
		}
		x, y := src.Uniform(0.3, w-0.3), src.Uniform(0.3, h-0.3)
		if obstacle != nil &&
			x > obstacle.MinX-margin && x < obstacle.MaxX+margin &&
			y > obstacle.MinY-margin && y < obstacle.MaxY+margin {
			continue
		}
		ok := true
		for _, p := range pois {
			if math.Hypot(p.X-x, p.Y-y) <= minSep {
				ok = false
				break
			}
		}
		if ok {
			pois = append(pois, coverage.PoI{X: x, Y: y})
		}
	}
	// Dirichlet(1,…,1) target via normalized exponential draws.
	raw := make([]float64, m)
	for i := range raw {
		raw[i] = src.Exp(1)
	}
	scn := coverage.Scenario{Name: name, PoIs: pois, Target: normalize(raw)}
	if obstacle != nil {
		scn.Obstacles = []coverage.Obstacle{*obstacle}
	}
	return scn, nil
}

// genRandomGeometric emits PCG-generated random geometric scenarios,
// including one with an obstacle the router must detour around.
func genRandomGeometric() (*Corpus, error) {
	const seed = genSeedBase + 5
	c := &Corpus{
		Version: Version,
		Family:  "random-geometric",
		Description: "Seeded random geometric scenarios (uniform placement, pairwise " +
			"separation > 2r, Dirichlet targets), one with an obstacle. The optimizer must " +
			"stay within the family's metric envelope, beat the Metropolis baseline, and be " +
			"bit-exact across worker counts.",
		Generator: &Generator{Tool: "confgen", Seed: seed},
		Matrix:    defaultMatrix(),
	}
	src := rng.New(seed)
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-4}
	specs := []struct {
		name     string
		m        int
		w, h     float64
		obstacle *coverage.Obstacle
	}{
		{"rgg-6", 6, 3.5, 3.5, nil},
		{"rgg-7", 7, 4, 4, nil},
		{"rgg-8", 8, 4, 4, nil},
		{"rgg-7-obstacle", 7, 4, 4, &coverage.Obstacle{MinX: 1.5, MinY: 1.5, MaxX: 2.2, MaxY: 2.5}},
	}
	var names []string
	for i, sp := range specs {
		scn, err := randomScenario(src, sp.name, sp.m, sp.w, sp.h, 0.55, sp.obstacle)
		if err != nil {
			return nil, err
		}
		c.Cases = append(c.Cases, Case{
			Name:       sp.name,
			Scenario:   scn,
			Objectives: obj,
			Run:        Budget{Seed: seed + uint64(10+i), MaxIters: 300, Restarts: 2},
		})
		names = append(names, sp.name)
	}
	// A baseline twin for the first scenario anchors the
	// optimization-beats-baseline ordering on generated geometry too.
	c.Cases = append(c.Cases, Case{
		Name:       "rgg-6-metropolis",
		Mode:       ModeMetropolis,
		Scenario:   c.Cases[0].Scenario,
		Objectives: obj,
		Run:        Budget{Seed: 0},
	})
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvCostOrder, Cases: []string{"rgg-6", "rgg-6-metropolis"}},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: names},
		Invariant{Type: InvBound, Metric: "deltaC", Max: fptr(1.2), Cases: names},
	)
	return c, nil
}

// genIncidentArrivals models the stochastic-arrival setting of Yu et
// al.: incidents arrive at each station as a Poisson process, and the
// target allocation is proportional to the arrival rates. Sweeping the
// rate skew, the achieved coverage shares must respect the rate ordering.
func genIncidentArrivals() (*Corpus, error) {
	const seed = genSeedBase + 6
	c := &Corpus{
		Version: Version,
		Family:  "incident-arrivals",
		Description: "Stochastic-arrival incident mixes on a 2×3 station grid: per-station " +
			"Poisson arrival rates drawn once from the PCG stream, then skewed by an " +
			"exponent sweep; Φ ∝ λ. Coverage-dominant weighting must allocate more coverage " +
			"to hotter stations (share order follows rate order).",
		Generator: &Generator{Tool: "confgen", Seed: seed},
		Matrix:    defaultMatrix(),
	}
	src := rng.New(seed)
	base := make([]float64, 6)
	for i := range base {
		base[i] = src.Uniform(0.5, 1.8)
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-4}
	var names []string
	for i, skew := range []float64{0.5, 1, 2, 3} {
		rates := make([]float64, len(base))
		for j, b := range base {
			rates[j] = math.Pow(b, skew)
		}
		scn, err := coverage.GridScenario(fmt.Sprintf("incidents-s%g", skew), 2, 3, normalize(rates))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("incidents-s%g", skew)
		c.Cases = append(c.Cases, Case{
			Name:       name,
			Scenario:   scn,
			Objectives: obj,
			Run:        Budget{Seed: seed + uint64(10+i), MaxIters: 350, Restarts: 2},
			Param:      skew,
		})
		names = append(names, name)
	}
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvShareOrder, MinGap: 0.08, Tolerance: 0.05, Cases: names},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: names},
		Invariant{Type: InvBound, Metric: "deltaC", Max: fptr(0.8), Cases: names},
	)
	return c, nil
}

// genEnergyBudget sweeps the §VII energy objective's weight toward a
// travel budget below the free-run energy: the achieved mean travel
// distance must approach the budget as the weight grows.
func genEnergyBudget() (*Corpus, error) {
	const seed = genSeedBase + 7
	c := &Corpus{
		Version: Version,
		Family:  "energy-budget",
		Description: "§VII energy-budget variants on a uniform line-5: EnergyTarget below " +
			"the free-run travel energy, EnergyWeight swept upward. |Energy − γ| must be " +
			"nonincreasing in the weight, and tight under the heaviest weight.",
		Generator: &Generator{Tool: "confgen", Seed: seed},
		Matrix:    defaultMatrix(),
	}
	scn, err := coverage.LineScenario("energy-line-5", 5, uniformTarget(5))
	if err != nil {
		return nil, err
	}
	var names []string
	for i, w := range []float64{0.05, 0.5, 5, 50} {
		name := fmt.Sprintf("energy-w%g", w)
		c.Cases = append(c.Cases, Case{
			Name:     name,
			Scenario: scn,
			Objectives: coverage.Objectives{
				Alpha: 1, Beta: 1e-4,
				EnergyWeight: w, EnergyTarget: 1.0,
			},
			Run:   Budget{Seed: seed + uint64(10+i), MaxIters: 350, Restarts: 2},
			Param: w,
		})
		names = append(names, name)
	}
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvMonotone, Metric: "energyGap", Direction: DirNonincreasing, Tolerance: 0.05, Cases: names},
		Invariant{Type: InvBound, Metric: "energyGap", Max: fptr(0.25), Cases: []string{names[len(names)-1]}},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: names},
	)
	return c, nil
}

// genBetaCrossover sweeps the exposure weight β on the paper's Topology
// 3 — the Tables I/II experiment as a conformance contract: rising β
// trades coverage fidelity for exposure.
func genBetaCrossover() (*Corpus, error) {
	const seed = genSeedBase + 8
	c := &Corpus{
		Version: Version,
		Family:  "beta-crossover",
		Description: "The coverage/exposure crossover on the paper's Topology 3 (Tables " +
			"I/II): sweeping β upward must not worsen ĒBar and must not improve ΔC.",
		Generator: &Generator{Tool: "confgen", Seed: seed},
		Matrix:    defaultMatrix(),
	}
	scn, err := coverage.PaperTopology(3)
	if err != nil {
		return nil, err
	}
	var names []string
	for i, beta := range []float64{1e-6, 1e-4, 1e-2, 1} {
		name := fmt.Sprintf("beta-%g", beta)
		c.Cases = append(c.Cases, Case{
			Name:       name,
			Scenario:   scn,
			Objectives: coverage.Objectives{Alpha: 1, Beta: beta},
			Run:        Budget{Seed: seed + uint64(10+i), MaxIters: 400, Restarts: 3},
			Param:      beta,
		})
		names = append(names, name)
	}
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvCrossover, Tolerance: 0.15, Cases: names},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: names},
	)
	return c, nil
}

// genFleet pins the joint-fleet contract: a jointly optimized K=2 fleet
// must beat K replicas of the best single-sensor schedule under the
// fleet objective, bit-exactly across worker counts.
func genFleet() (*Corpus, error) {
	const seed = genSeedBase + 9
	c := &Corpus{
		Version: Version,
		Family:  "fleet",
		Description: "Joint K=2 fleet optimization on a uniform 2×3 grid versus the same " +
			"budget spent replicating the best single-sensor schedule: the joint stack must " +
			"cost no more under the fleet objective, bit-exactly across worker counts.",
		Generator: &Generator{Tool: "confgen", Seed: seed},
		Matrix:    defaultMatrix(),
	}
	scn, err := coverage.GridScenario("fleet-grid-2x3", 2, 3, uniformTarget(6))
	if err != nil {
		return nil, err
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-3}
	fl := &FleetSpec{Sensors: 2}
	c.Cases = append(c.Cases,
		Case{
			Name:       "fleet-joint",
			Scenario:   scn,
			Objectives: obj,
			Run:        Budget{Seed: seed + 10, MaxIters: 300, Restarts: 2},
			Fleet:      fl,
		},
		Case{
			Name:       "fleet-replicate",
			Mode:       ModeReplicate,
			Scenario:   scn,
			Objectives: obj,
			Run:        Budget{Seed: seed + 11, MaxIters: 300, Restarts: 2},
			Fleet:      fl,
		},
	)
	c.Invariants = append(c.Invariants,
		Invariant{Type: InvCostOrder, Cases: []string{"fleet-joint", "fleet-replicate"}},
		Invariant{Type: InvBitExact, Over: OverWorkers, Cases: []string{"fleet-joint"}},
	)
	return c, nil
}
