package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/coverage"
)

// Tolerances of the output checks. Rows of a returned plan must sum to
// one within stochasticTol. Its cost must match a fresh dense
// re-evaluation within reevalTol (relative): the sparse solver agrees
// with dense to ~1e-8 relative (DESIGN.md §11), so the bound leaves
// room for it while still catching a cost that belongs to another
// matrix.
const (
	stochasticTol = 1e-9
	reevalTol     = 1e-6
)

// checkPlan verifies a plan returned for p: every transition matrix
// square and row-stochastic, the cost finite, a fleet plan carrying K
// matrices, and the cost equal to a re-evaluation of the returned
// matrices with EvaluateMatrix / EvaluateFleetMatrices.
func checkPlan(p *problem, plan *coverage.Plan) error {
	if plan == nil {
		return fmt.Errorf("%s: nil plan", p.name)
	}
	if math.IsNaN(plan.Cost) || math.IsInf(plan.Cost, 0) {
		return fmt.Errorf("%s: cost %v is not finite", p.name, plan.Cost)
	}
	stack := [][][]float64{plan.TransitionMatrix}
	if p.fleet() {
		if plan.Fleet == nil || len(plan.Fleet.TransitionMatrices) != p.sensors {
			return fmt.Errorf("%s: fleet plan without %d matrices", p.name, p.sensors)
		}
		stack = plan.Fleet.TransitionMatrices
	}
	m := len(p.scn.PoIs)
	for s, rows := range stack {
		if err := checkStochastic(rows, m); err != nil {
			return fmt.Errorf("%s: matrix %d: %w", p.name, s, err)
		}
	}
	var (
		again *coverage.Plan
		err   error
	)
	if p.fleet() {
		again, err = coverage.EvaluateFleetMatrices(p.scn, p.obj, stack, p.resp)
	} else {
		again, err = coverage.EvaluateMatrix(p.scn, p.obj, plan.TransitionMatrix)
	}
	if err != nil {
		return fmt.Errorf("%s: re-evaluation: %w", p.name, err)
	}
	if diff := math.Abs(again.Cost - plan.Cost); diff > reevalTol*math.Max(1, math.Abs(again.Cost)) {
		return fmt.Errorf("%s: plan cost %v but its matrices evaluate to %v", p.name, plan.Cost, again.Cost)
	}
	return nil
}

// checkStochastic verifies an m×m row-stochastic matrix.
func checkStochastic(rows [][]float64, m int) error {
	if len(rows) != m {
		return fmt.Errorf("%d rows for %d PoIs", len(rows), m)
	}
	for i, row := range rows {
		if len(row) != m {
			return fmt.Errorf("row %d has %d entries for %d PoIs", i, len(row), m)
		}
		var sum float64
		for j, v := range row {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("p[%d][%d] = %v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > stochasticTol {
			return fmt.Errorf("row %d sums to %v", i, sum)
		}
	}
	return nil
}

// queryResult is the part of a /plans:query result the checks read.
type queryResult struct {
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	JobID       string `json:"jobId"`
	Error       string `json:"error"`
}

// checkHit verifies one exact-hit query result: status "hit" and the
// fingerprint the query was built for.
func checkHit(res queryResult, want coverage.Fingerprint) error {
	if res.Status != "hit" {
		return fmt.Errorf("exact-hit query answered %q (%s)", res.Status, res.Error)
	}
	if res.Fingerprint != string(want) {
		return fmt.Errorf("exact-hit query answered fingerprint %s, want %s", res.Fingerprint, want)
	}
	return nil
}

// digest is a SHA-256 over plans' exact bits, in the order added.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add hashes the problem name, every transition matrix and the cost.
func (d *digest) add(name string, plan *coverage.Plan) {
	d.h.Write([]byte(name))
	stack := [][][]float64{plan.TransitionMatrix}
	if plan.Fleet != nil {
		stack = plan.Fleet.TransitionMatrices
	}
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
	for _, rows := range stack {
		for _, row := range rows {
			for _, v := range row {
				put(v)
			}
		}
	}
	put(plan.Cost)
}

// mark hashes a note in place of a plan, such as a failed operation.
func (d *digest) mark(note string) { d.h.Write([]byte(note)) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
