// Package fleet optimizes K mobile sensors jointly over the stacked
// K·M² parameter space of their transition matrices.
//
// The joint cost extends the paper's single-sensor U_ε (Eq. 9) in the
// spirit of Eqs. 7–10:
//
//   - Coverage adds across sensors. Each sensor s is assigned a
//     responsibility weight ρ_{s,i} per PoI (rows of a K×M matrix whose
//     columns sum to one; uniform 1/K by default) and contributes
//     G_i^(s) = Σ_{j,k} π_j^(s) p_jk^(s) (T_{jk,i} − ρ_{s,i} Φ_i T_jk),
//     its single-sensor coverage discrepancy against the scaled target
//     ρ_{s,i}Φ_i. The fleet discrepancy is G_i = Σ_s G_i^(s): the fleet
//     meets PoI i's share exactly when the sensors' combined cover time
//     matches Φ_i — responsibility only divides the work, the sum
//     restores the whole. The coverage term is ½ Σ_i α_i G_i².
//   - Exposure takes the best sensor. A PoI's expected exposure before
//     detection is governed by whichever sensor reaches it first, so the
//     fleet exposure at PoI i is Ē_i = min_s Ē_i^(s) (each Ē_i^(s) the
//     paper's Eq. 3 for that sensor's chain) and the term is
//     ½ Σ_i β_i Ē_i². At the min, only the owning sensor's parameters
//     move Ē_i, so the joint gradient masks β to the argmin owner
//     (lowest sensor index on ties) — the exact subgradient.
//   - Barrier, energy and entropy penalties are per-sensor and add.
//
// Because every term is a composition of single-sensor quantities with
// per-PoI coefficients, the joint gradient factors into K independent
// Eq. 10 assemblies with overridden couplings — cost.Model's
// GradientWeightedSolvedIn. A Model is the joint objective package
// descent searches (descent.NewOptimizer): its State evaluates a stack in
// one cost.Workspace per sensor.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/markov"
	"repro/internal/mat"
)

// ErrModel indicates an invalid fleet model configuration.
var ErrModel = errors.New("fleet: invalid model")

// Model evaluates the joint fleet cost and its stacked gradient for a
// fixed single-sensor cost model, sensor count, and responsibility
// assignment. A Model is immutable after construction and safe for
// concurrent use.
type Model struct {
	cm *cost.Model
	k  int
	m  int
	// resp is the K×M responsibility matrix, row-major: resp[s*m+i] is
	// sensor s's share of PoI i's coverage target.
	resp []float64
	// phi, alpha, beta cache the topology targets and objective weights
	// so the combine loops never chase the topology interface.
	phi   []float64
	alpha []float64
	beta  []float64
}

// NewModel builds a fleet model over the given single-sensor cost model.
// A nil responsibility selects the uniform 1/K assignment; otherwise it
// must be K rows of M finite non-negative shares with every PoI claimed
// by at least one sensor. Column sums need not be exactly one — the
// shares scale each sensor's target, and a fleet whose shares sum above
// (below) one at a PoI is simply asked to over- (under-) cover it.
func NewModel(cm *cost.Model, sensors int, responsibility [][]float64) (*Model, error) {
	if sensors < 1 {
		return nil, fmt.Errorf("%w: %d sensors", ErrModel, sensors)
	}
	m := cm.Topology().M()
	resp := make([]float64, sensors*m)
	if responsibility == nil {
		v := 1 / float64(sensors)
		for i := range resp {
			resp[i] = v
		}
	} else {
		if len(responsibility) != sensors {
			return nil, fmt.Errorf("%w: %d responsibility rows for %d sensors",
				ErrModel, len(responsibility), sensors)
		}
		for s, row := range responsibility {
			if len(row) != m {
				return nil, fmt.Errorf("%w: responsibility row %d has %d entries for %d PoIs",
					ErrModel, s, len(row), m)
			}
			for i, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return nil, fmt.Errorf("%w: responsibility[%d][%d] = %v",
						ErrModel, s, i, v)
				}
				resp[s*m+i] = v
			}
		}
		for i := 0; i < m; i++ {
			var col float64
			for s := 0; s < sensors; s++ {
				col += resp[s*m+i]
			}
			if col <= 0 {
				return nil, fmt.Errorf("%w: PoI %d has zero total responsibility", ErrModel, i)
			}
		}
	}
	w := cm.Weights()
	fm := &Model{
		cm:    cm,
		k:     sensors,
		m:     m,
		resp:  resp,
		phi:   make([]float64, m),
		alpha: w.Alpha,
		beta:  w.Beta,
	}
	top := cm.Topology()
	for i := 0; i < m; i++ {
		fm.phi[i] = top.TargetAt(i)
	}
	return fm, nil
}

// Cost returns the underlying single-sensor cost model.
func (fm *Model) Cost() *cost.Model { return fm.cm }

// Sensors returns the fleet size K.
func (fm *Model) Sensors() int { return fm.k }

// Responsibility returns a copy of the K×M responsibility matrix.
func (fm *Model) Responsibility() [][]float64 {
	out := make([][]float64, fm.k)
	for s := 0; s < fm.k; s++ {
		out[s] = append([]float64(nil), fm.resp[s*fm.m:(s+1)*fm.m]...)
	}
	return out
}

// Evaluation is the joint cost breakdown at one stack of K transition
// matrices.
type Evaluation struct {
	// U is the total penalized joint cost, the optimizer objective.
	U float64
	// Objective is U without the barrier penalties.
	Objective float64

	// CoverageTerm is ½ Σ_i α_i G_i² over the fleet discrepancies.
	CoverageTerm float64
	// ExposureTerm is ½ Σ_i β_i (min_s Ē_i^(s))².
	ExposureTerm float64
	// Penalty is the summed per-sensor barrier contribution.
	Penalty float64
	// EnergyTerm and EntropyTerm are the summed per-sensor §VII
	// extensions (zero when disabled).
	EnergyTerm  float64
	EntropyTerm float64

	// DeltaC is the weight-free fleet coverage deviation Σ_i G_i²
	// (Eq. 12 with the fleet G).
	DeltaC float64
	// EBar is sqrt(Σ_i Ē_i²) over the min-over-sensors exposures
	// (Eq. 13 with the fleet Ē).
	EBar float64
	// G are the fleet per-PoI coverage discrepancies Σ_s G_i^(s).
	G []float64
	// MinExposure are the per-PoI fleet exposures min_s Ē_i^(s).
	MinExposure []float64
	// Owner[i] is the sensor achieving MinExposure[i] (lowest index on
	// ties) — the sensor whose parameters the exposure gradient flows to.
	Owner []int
}

// UnionShare returns the analytic prediction of the simulated union
// coverage share per PoI from the sensors' coverage distributions C̄^(s):
// 1 − Π_s (1 − C̄_i^(s)), the independent-overlap approximation of the
// fraction of time at least one sensor covers PoI i. No cost term reads
// it, so evaluations leave it to the caller that reports it.
func UnionShare(cbar [][]float64) []float64 {
	out := make([]float64, len(cbar[0]))
	for i := range out {
		prod := 1.0
		for _, cb := range cbar {
			c := cb[i]
			if c < 0 {
				c = 0
			} else if c > 1 {
				c = 1
			}
			prod *= 1 - c
		}
		out[i] = 1 - prod
	}
	return out
}

// CopyTo overwrites dst with a deep copy of ev, reusing dst's slices,
// so the optimizer can keep its best evaluation without allocating.
func (ev *Evaluation) CopyTo(dst *Evaluation) {
	g, minExp, owner := dst.G, dst.MinExposure, dst.Owner
	*dst = *ev
	dst.G = append(g[:0], ev.G...)
	dst.MinExposure = append(minExp[:0], ev.MinExposure...)
	dst.Owner = append(owner[:0], ev.Owner...)
}

// newEvaluation allocates an Evaluation sized for the model.
func (fm *Model) newEvaluation() *Evaluation {
	return &Evaluation{
		G:           make([]float64, fm.m),
		MinExposure: make([]float64, fm.m),
		Owner:       make([]int, fm.m),
	}
}

// Shape returns the fleet size K and the chain order M, the shape of
// the matrix stacks the model evaluates.
func (fm *Model) Shape() (k, m int) { return fm.k, fm.m }

// State is a private evaluation state of the joint objective: one
// cost.Workspace per sensor, the joint breakdown of the stack it
// evaluated last, and the per-sensor search lines its probes fold on.
// A State is not safe for concurrent use.
type State struct {
	fm  *Model
	ws  []*cost.Workspace
	evs []*cost.Evaluation // ws[s]'s last evaluation
	ev  *Evaluation        // the joint breakdown of the last stack

	coverCoef []float64 // c_i = α_i G_i^fleet
	betaMask  []float64 // β masked to one sensor's owned PoIs

	// lines are the per-sensor search lines of the current line search,
	// allocated by the first Line call.
	lines []*cost.Line
}

// NewState returns a fresh evaluation state whose chain solves use the
// given backend.
func (fm *Model) NewState(solver markov.Method) *State {
	st := &State{
		fm:        fm,
		ws:        make([]*cost.Workspace, fm.k),
		evs:       make([]*cost.Evaluation, fm.k),
		ev:        fm.newEvaluation(),
		coverCoef: make([]float64, fm.m),
		betaMask:  make([]float64, fm.m),
	}
	for s := range st.ws {
		st.ws[s] = fm.cm.NewWorkspace()
		st.ws[s].SetSolver(solver)
	}
	return st
}

// Evaluate evaluates the stack ps sensor by sensor, folds the K
// single-sensor evaluations into the joint breakdown, and returns the
// joint penalized cost U.
func (st *State) Evaluate(ps []*mat.Matrix) (float64, error) {
	fm := st.fm
	if len(ps) != fm.k {
		return 0, fmt.Errorf("%w: %d matrices for %d sensors", ErrModel, len(ps), fm.k)
	}
	for s, p := range ps {
		ev, err := fm.cm.EvaluateIn(st.ws[s], p)
		if err != nil {
			return 0, fmt.Errorf("fleet: sensor %d: %w", s, err)
		}
		st.evs[s] = ev
	}
	st.combine()
	return st.ev.U, nil
}

// Metrics returns the unpenalized joint cost, ΔC and Ē of the last
// evaluation.
func (st *State) Metrics() (objective, deltaC, eBar float64) {
	return st.ev.Objective, st.ev.DeltaC, st.ev.EBar
}

// Gradient writes the K unprojected gradient blocks of the joint cost at
// the last evaluation into dst: block s is ∂U/∂P^(s), assembled by the
// single-sensor Eq. 10 machinery from sensor s's own Markov solution
// with the fleet couplings — coverage through c_i = α_i G_i^fleet and
// the responsibility-scaled targets, exposure through β masked to the
// PoIs whose min-over-sensors exposure sensor s owns.
func (st *State) Gradient(dst []*mat.Matrix) error {
	fm := st.fm
	for i := 0; i < fm.m; i++ {
		st.coverCoef[i] = fm.alpha[i] * st.ev.G[i]
	}
	for s := 0; s < fm.k; s++ {
		fm.maskBeta(st.betaMask, st.ev.Owner, s)
		g, err := fm.cm.GradientWeightedSolvedIn(st.ws[s], st.evs[s], st.coverCoef, fm.coverPhi(st.coverCoef, s), st.betaMask)
		if err != nil {
			return fmt.Errorf("fleet: sensor %d gradient: %w", s, err)
		}
		if err := dst[s].CopyFrom(g); err != nil {
			return err
		}
	}
	return nil
}

// Line builds sensor s's search line through its last evaluation along
// dir[s] (cost.Line), forming the evaluation's fundamental matrices if
// Gradient has not. The state allocates its K lines on the first call,
// so an evaluate-only state never holds them.
func (st *State) Line(dir []*mat.Matrix) error {
	fm := st.fm
	if len(dir) != fm.k {
		return fmt.Errorf("%w: %d directions for %d sensors", ErrModel, len(dir), fm.k)
	}
	if st.lines == nil {
		st.lines = make([]*cost.Line, fm.k)
		for s := range st.lines {
			st.lines[s] = fm.cm.NewLine()
		}
	}
	for s, ev := range st.evs {
		if err := st.lines[s].Reset(ev.Sol, dir[s]); err != nil {
			return fmt.Errorf("fleet: sensor %d line: %w", s, err)
		}
	}
	return nil
}

// Probe evaluates the stack at δ on the search lines of the last Line
// call, sensor s's point P^(s) + δ·D^(s) formed by its line, like
// Evaluate but with each sensor's cost folded on its line
// (cost.Model.ProbeIn).
func (st *State) Probe(delta float64) (float64, error) {
	fm := st.fm
	if st.lines == nil {
		return 0, fmt.Errorf("%w: probe before any search line", ErrModel)
	}
	for s, line := range st.lines {
		ev, err := fm.cm.ProbeIn(st.ws[s], line, delta)
		if err != nil {
			return 0, fmt.Errorf("fleet: sensor %d: %w", s, err)
		}
		st.evs[s] = ev
	}
	st.combine()
	return st.ev.U, nil
}

// LineScans returns the number of probes, summed over the sensors, whose
// matrix fell outside its line's certified range and was scanned
// (markov.Solver.LineScans).
func (st *State) LineScans() int {
	n := 0
	for _, ws := range st.ws {
		n += ws.LineScans()
	}
	return n
}

// CopyTo copies the last joint evaluation into dst, reusing its slices.
func (st *State) CopyTo(dst *Evaluation) { st.ev.CopyTo(dst) }

// Clone returns a fresh copy of the last joint evaluation.
func (st *State) Clone() *Evaluation {
	out := st.fm.newEvaluation()
	st.ev.CopyTo(out)
	return out
}

// combine folds the K single-sensor evaluations into the joint
// breakdown. Every accumulation is a fixed-order fold (PoIs outer,
// sensors inner, both ascending), so the result is deterministic.
//
// One sensor's own terms are the joint ones bit for bit (ρ = 1 and the
// minimum over one exposure is that exposure), so at K = 1 combine takes
// them instead of folding them a second time.
func (st *State) combine() {
	fm, evs, out := st.fm, st.evs, st.ev
	m, k := fm.m, fm.k
	if k == 1 {
		ev := evs[0]
		out.U, out.Objective = ev.U, ev.Objective
		out.CoverageTerm, out.ExposureTerm, out.Penalty = ev.CoverageTerm, ev.ExposureTerm, ev.Penalty
		out.EnergyTerm, out.EntropyTerm = ev.EnergyTerm, ev.EntropyTerm
		out.DeltaC, out.EBar = ev.DeltaC, ev.EBar
		copy(out.G, ev.G)
		copy(out.MinExposure, ev.EBarI)
		return
	}
	out.U, out.Objective = 0, 0
	out.CoverageTerm, out.ExposureTerm, out.Penalty = 0, 0, 0
	out.EnergyTerm, out.EntropyTerm = 0, 0
	out.DeltaC, out.EBar = 0, 0

	for i := 0; i < m; i++ {
		var g float64
		for s := 0; s < k; s++ {
			ev := evs[s]
			// G_i^(s) against the responsibility-scaled target, rebuilt
			// from the raw numerator: CoverTime − ρΦ·TotalTime.
			g += ev.CoverTime[i] - fm.resp[s*m+i]*fm.phi[i]*ev.TotalTime
		}
		out.G[i] = g
		out.CoverageTerm += 0.5 * fm.alpha[i] * g * g
		out.DeltaC += g * g
	}

	var sumE2 float64
	for i := 0; i < m; i++ {
		best, owner := evs[0].EBarI[i], 0
		for s := 1; s < k; s++ {
			if e := evs[s].EBarI[i]; e < best {
				best, owner = e, s
			}
		}
		out.MinExposure[i] = best
		out.Owner[i] = owner
		out.ExposureTerm += 0.5 * fm.beta[i] * best * best
		sumE2 += best * best
	}
	out.EBar = math.Sqrt(sumE2)

	for s := 0; s < k; s++ {
		out.Penalty += evs[s].Penalty
		out.EnergyTerm += evs[s].EnergyTerm
		out.EntropyTerm += evs[s].EntropyTerm
	}
	out.Objective = out.CoverageTerm + out.ExposureTerm + out.EnergyTerm + out.EntropyTerm
	out.U = out.Objective + out.Penalty
}

// Evaluate computes the joint cost breakdown at the K-matrix stack ps.
// Each call builds a fresh State; the optimizer reuses its own.
func (fm *Model) Evaluate(ps []*mat.Matrix) (*Evaluation, error) {
	st := fm.NewState(markov.MethodDense)
	if _, err := st.Evaluate(ps); err != nil {
		return nil, err
	}
	return st.ev, nil
}

// Gradient evaluates the joint cost at ps and returns the evaluation
// together with the K unprojected gradient blocks of the stacked
// objective (see State.Gradient). Like Evaluate, each call allocates;
// the optimizer reuses buffers.
func (fm *Model) Gradient(ps []*mat.Matrix) (*Evaluation, []*mat.Matrix, error) {
	st := fm.NewState(markov.MethodDense)
	if _, err := st.Evaluate(ps); err != nil {
		return nil, nil, err
	}
	grads := make([]*mat.Matrix, fm.k)
	for s := range grads {
		grads[s] = mat.New(fm.m, fm.m)
	}
	if err := st.Gradient(grads); err != nil {
		return nil, nil, err
	}
	return st.ev, grads, nil
}

// coverPhi returns sensor s's travel-time coupling Σ_i c_i ρ_{s,i} Φ_i
// for the given coverage coefficients.
func (fm *Model) coverPhi(coverCoef []float64, s int) float64 {
	var cphi float64
	base := s * fm.m
	for i := 0; i < fm.m; i++ {
		cphi += coverCoef[i] * fm.resp[base+i] * fm.phi[i]
	}
	return cphi
}

// maskBeta fills dst with β_i where sensor s owns PoI i's min exposure
// and zero elsewhere.
func (fm *Model) maskBeta(dst []float64, owner []int, s int) {
	for i := 0; i < fm.m; i++ {
		if owner[i] == s {
			dst[i] = fm.beta[i]
		} else {
			dst[i] = 0
		}
	}
}
