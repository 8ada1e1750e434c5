// Package sim simulates the mobile sensor's coverage schedule: a random
// walk over the PoIs driven by a Markov transition matrix, with the
// physical timing (travel, pauses, pass-through coverage) supplied by the
// topology. It measures the realized counterparts of the paper's analytic
// quantities — coverage times C_i(N), elapsed time T(N), per-PoI exposure
// segments — so the optimizer's closed-form predictions can be validated
// against actual schedules (§VI-D).
//
// Exposure is measured under three conventions:
//
//   - UnitStep: every transition lasts one time unit and passing by a PoI
//     does not end its exposure segment — exactly the simplifying
//     assumptions behind Eq. 3, so the measured mean exposure converges to
//     the analytic Ē_i.
//   - Physical: real transition durations, but passing by still does not
//     count as a return (the paper's simulation convention; the residual
//     gap to Eq. 3 is the unit-duration assumption the paper reports).
//   - PhysicalInterrupted: real durations and pass-through coverage
//     interrupts exposure — the fully physical measure.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// ErrConfig indicates an invalid simulation configuration.
var ErrConfig = errors.New("sim: invalid configuration")

// TimeModel selects the exposure measurement convention.
type TimeModel int

// Exposure measurement conventions (see the package comment).
const (
	// UnitStep counts one time unit per transition (matches Eq. 3).
	UnitStep TimeModel = iota + 1
	// Physical uses real durations; pass-bys do not end segments.
	Physical
	// PhysicalInterrupted uses real durations and ends a segment whenever
	// the sensor's disk sweeps over the PoI.
	PhysicalInterrupted
)

// String implements fmt.Stringer.
func (m TimeModel) String() string {
	switch m {
	case UnitStep:
		return "unit-step"
	case Physical:
		return "physical"
	case PhysicalInterrupted:
		return "physical-interrupted"
	default:
		return fmt.Sprintf("timemodel(%d)", int(m))
	}
}

// Config describes one simulation run.
type Config struct {
	// Topology supplies the physical layout and timing tables.
	Topology *topology.Topology
	// P is the transition matrix driving the walk.
	P *mat.Matrix
	// Steps is the number of Markov transitions N to simulate.
	Steps int
	// Seed drives the walk.
	Seed uint64
	// TimeModel selects the exposure convention; UnitStep if zero.
	TimeModel TimeModel
	// Start is the initial PoI; use -1 for a uniformly random start.
	Start int
	// CollectSegments records every completed exposure segment per PoI in
	// Metrics.Segments (memory grows with the run; off by default).
	CollectSegments bool
}

func (c *Config) validate() error {
	if c.Topology == nil {
		return fmt.Errorf("%w: nil topology", ErrConfig)
	}
	if c.P == nil {
		return fmt.Errorf("%w: nil transition matrix", ErrConfig)
	}
	if c.P.Rows() != c.Topology.M() || c.P.Cols() != c.Topology.M() {
		return fmt.Errorf("%w: %dx%d matrix for %d PoIs",
			ErrConfig, c.P.Rows(), c.P.Cols(), c.Topology.M())
	}
	if err := markov.CheckStochastic(c.P); err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("%w: steps %d", ErrConfig, c.Steps)
	}
	if c.Start < -1 || c.Start >= c.Topology.M() {
		return fmt.Errorf("%w: start %d", ErrConfig, c.Start)
	}
	return nil
}

// Metrics are the measured outcomes of one run.
type Metrics struct {
	// Steps is the number of transitions simulated.
	Steps int
	// TotalTime is the physical elapsed time T(N).
	TotalTime float64
	// CoverageTime is C_i(N), physical coverage time per PoI.
	CoverageTime []float64
	// CoverageShare is C_i(N)/T(N), the realized counterpart of C̄_i.
	CoverageShare []float64
	// G is the measured per-PoI discrepancy (C_i(N) − Φ_i·T(N))/N, the
	// realized counterpart of G_i.
	G []float64
	// DeltaC is Σ_i G_i², the measured Eq. 12 metric.
	DeltaC float64
	// MeanExposure is ⟨E_i(N)⟩ per PoI, under the configured TimeModel.
	MeanExposure []float64
	// ExposureSegments counts completed exposure segments per PoI.
	ExposureSegments []int
	// EBar is sqrt(Σ_i ⟨E_i⟩²), the measured Eq. 13 metric.
	EBar float64
	// Visits counts arrivals (as transition destination) per PoI.
	Visits []int64
	// Segments holds every completed exposure segment per PoI when
	// Config.CollectSegments is set (nil otherwise); used to study the
	// full segment distribution, not just its mean.
	Segments [][]float64
}

// exposureTracker accumulates per-PoI exposure segments.
type exposureTracker struct {
	pending  bool    // a segment is open (the sensor has left this PoI)
	elapsed  float64 // away time accumulated in the open segment
	total    float64 // sum of completed segment lengths
	count    int     // completed segments
	collect  bool    // record individual segments
	segments []float64
}

// Run simulates the schedule and returns the measured metrics.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	top := cfg.Topology
	n := top.M()
	model := cfg.TimeModel
	if model == 0 {
		model = UnitStep
	}
	src := rng.New(cfg.Seed)

	cur := cfg.Start
	if cur == -1 {
		cur = src.IntN(n)
	}

	met := &Metrics{
		Steps:            cfg.Steps,
		CoverageTime:     make([]float64, n),
		CoverageShare:    make([]float64, n),
		G:                make([]float64, n),
		MeanExposure:     make([]float64, n),
		ExposureSegments: make([]int, n),
		Visits:           make([]int64, n),
	}
	trackers := make([]exposureTracker, n)
	if cfg.CollectSegments {
		met.Segments = make([][]float64, n)
		for i := range trackers {
			trackers[i].collect = true
		}
	}
	row := make([]float64, n)

	for step := 0; step < cfg.Steps; step++ {
		for j := 0; j < n; j++ {
			row[j] = cfg.P.At(cur, j)
		}
		next := src.Categorical(row)
		if next < 0 {
			return nil, fmt.Errorf("%w: zero row %d", ErrConfig, cur)
		}

		// Physical coverage bookkeeping uses the exact T tables in every
		// time model. A PoI off the transition's cover list would add +0
		// to a non-negative sum, so walking the list changes no bits.
		met.TotalTime += top.TravelTime(cur, next)
		idx, val := top.CoverList(cur, next)
		for q, i := range idx {
			met.CoverageTime[i] += val[q]
		}

		advanceExposure(top, trackers, cur, next, model)

		// A departure from cur opens a segment for cur; the segment timer
		// starts at the destination per the paper ("measured from the PoI
		// location immediately after the sensor has left i"), so the
		// departing travel contributes no away time. In the physical
		// models the clock runs from arrival at the destination, so that
		// destination's pause does count.
		if next != cur {
			trackers[cur].pending = true
			trackers[cur].elapsed = 0
			if model == Physical || model == PhysicalInterrupted {
				trackers[cur].elapsed = top.PoIAt(next).Pause
			}
		}

		met.Visits[next]++
		cur = next
	}

	for i := 0; i < n; i++ {
		met.CoverageShare[i] = met.CoverageTime[i] / met.TotalTime
		met.G[i] = (met.CoverageTime[i] - top.TargetAt(i)*met.TotalTime) / float64(cfg.Steps)
		met.DeltaC += met.G[i] * met.G[i]
		met.ExposureSegments[i] = trackers[i].count
		if trackers[i].count > 0 {
			met.MeanExposure[i] = trackers[i].total / float64(trackers[i].count)
		}
		if cfg.CollectSegments {
			met.Segments[i] = trackers[i].segments
		}
		met.EBar += met.MeanExposure[i] * met.MeanExposure[i]
	}
	met.EBar = math.Sqrt(met.EBar)
	return met, nil
}

// advanceExposure adds one transition's away time to every pending
// tracker, closing segments on arrival (and, for PhysicalInterrupted, on
// pass-through).
func advanceExposure(top *topology.Topology, trackers []exposureTracker, cur, next int, model TimeModel) {
	switch model {
	case UnitStep:
		for i := range trackers {
			if !trackers[i].pending || i == cur {
				continue
			}
			// One unit per transition; arriving at i closes the segment.
			trackers[i].elapsed++
			if i == next {
				closeSegment(&trackers[i])
			}
		}
	case Physical:
		move := top.MoveTime(cur, next)
		pause := top.PoIAt(next).Pause
		for i := range trackers {
			if !trackers[i].pending || i == cur {
				continue
			}
			if i == next {
				// Exposure ends when coverage resumes on arrival; the
				// pause at i is covered time.
				trackers[i].elapsed += move
				closeSegment(&trackers[i])
			} else {
				trackers[i].elapsed += move + pause
			}
		}
	case PhysicalInterrupted:
		move := top.MoveTime(cur, next)
		pause := top.PoIAt(next).Pause
		duration := move + pause
		// Pass events are sorted by construction (intermediates in index
		// order, destination last); index them per PoI for this transit.
		for i := range trackers {
			if !trackers[i].pending || i == cur {
				continue
			}
			var ev *topology.PassEvent
			for _, e := range top.Passes(cur, next) {
				if e.PoI == i {
					e := e
					ev = &e
					break
				}
			}
			switch {
			case ev == nil:
				trackers[i].elapsed += duration
			case i == next:
				// Destination: covered from arrival (Enter == move).
				trackers[i].elapsed += ev.Enter
				closeSegment(&trackers[i])
			default:
				// Intermediate pass: the sweep closes the segment at
				// Enter; a fresh segment opens at Exit and accumulates the
				// remainder of the transit plus the destination pause.
				trackers[i].elapsed += ev.Enter
				closeSegment(&trackers[i])
				trackers[i].pending = true
				trackers[i].elapsed = duration - ev.Exit
			}
		}
	}
}

func closeSegment(tr *exposureTracker) {
	tr.total += tr.elapsed
	tr.count++
	if tr.collect {
		tr.segments = append(tr.segments, tr.elapsed)
	}
	tr.pending = false
	tr.elapsed = 0
}

// RunMany executes reps independent simulations with seeds split from
// cfg.Seed and returns all metrics.
func RunMany(cfg Config, reps int) ([]*Metrics, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("%w: reps %d", ErrConfig, reps)
	}
	master := rng.New(cfg.Seed)
	out := make([]*Metrics, 0, reps)
	for r := 0; r < reps; r++ {
		runCfg := cfg
		runCfg.Seed = master.Uint64()
		m, err := Run(runCfg)
		if err != nil {
			return nil, fmt.Errorf("sim: rep %d: %w", r, err)
		}
		out = append(out, m)
	}
	return out, nil
}
