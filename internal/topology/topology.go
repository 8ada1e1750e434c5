// Package topology models the physical layout of points of interest (PoIs)
// and precomputes the timing quantities the paper's Markov coverage model
// needs:
//
//   - T_jk   — travel time from PoI j to PoI k plus the pause at k
//     (Section III-A; T_jj is the pause at j),
//   - T_jk,i — time the sensor covers PoI i while executing the j→k
//     transition, with the paper's conventions T_{jk,j} = 0 and
//     T_{jk,k} = P_k (pass-through of intermediate PoIs is what couples
//     the PoIs geographically),
//   - d_ij   — travel distances, used by the energy objective (§VII).
//
// Travel is along the straight line between PoI centers at constant speed;
// a PoI is covered whenever the sensor is within the sensing range r.
package topology

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ErrInvalid indicates an inconsistent topology specification.
var ErrInvalid = errors.New("topology: invalid specification")

// PoI is a point of interest: a location the sensor must cover, with a
// per-visit pause time.
type PoI struct {
	// Pos is the PoI center.
	Pos geom.Point
	// Pause is the time the sensor dwells after arriving at this PoI.
	Pause float64
}

// PassEvent records that PoI covers during a j→k transit: the sensor is
// within sensing range of PoI from time Enter to time Exit, measured from
// the start of the transit (before the pause at the destination).
type PassEvent struct {
	PoI         int
	Enter, Exit float64
}

// Duration returns Exit - Enter.
func (e PassEvent) Duration() float64 { return e.Exit - e.Enter }

// Router plans a physically feasible polyline between two points. The
// returned path must start at a and end at b. Implementations live in
// package route; a nil Router means straight-line travel (the paper's
// setting).
type Router interface {
	Route(a, b geom.Point) ([]geom.Point, error)
}

// Topology is an immutable set of PoIs with a target coverage allocation
// and all derived timing tables.
type Topology struct {
	name   string
	pois   []PoI
	target []float64
	r      float64
	speed  float64

	travel [][]float64   // travel[j][k] = T_jk (includes pause at k)
	moveT  [][]float64   // moveT[j][k] = pure travel time j->k (no pause)
	cover  [][][]float64 // cover[j][k][i] = T_{jk,i}
	dist   [][]float64   // dist[j][k] = d_jk (along the routed path)
	passes [][][]PassEvent
	paths  [][][]geom.Point // paths[j][k] = routed polyline j -> k
	router Router           // kept so WithTarget preserves routing
}

// Config carries the inputs for New.
type Config struct {
	// Name identifies the topology in reports.
	Name string
	// PoIs are the points of interest; at least two are required.
	PoIs []PoI
	// Target is the prescribed coverage-time allocation Φ; it must be a
	// probability vector over the PoIs.
	Target []float64
	// Range is the sensing range r (must be positive, and small enough
	// that no two PoIs can be covered simultaneously).
	Range float64
	// Speed is the constant travel speed (must be positive).
	Speed float64
	// Router, when non-nil, plans the physical paths between PoIs
	// (e.g. around obstacles); nil selects straight-line travel.
	Router Router
}

// New validates the configuration and precomputes all timing tables.
func New(cfg Config) (*Topology, error) {
	m := len(cfg.PoIs)
	if m < 2 {
		return nil, fmt.Errorf("%w: need at least 2 PoIs, got %d", ErrInvalid, m)
	}
	if len(cfg.Target) != m {
		return nil, fmt.Errorf("%w: %d targets for %d PoIs", ErrInvalid, len(cfg.Target), m)
	}
	var sum float64
	for i, v := range cfg.Target {
		// NaN compares false against every threshold, so check it
		// explicitly rather than letting it slip through to the sum test.
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("%w: invalid target Φ_%d = %v", ErrInvalid, i, v)
		}
		sum += v
	}
	if !(math.Abs(sum-1) <= 1e-9) {
		return nil, fmt.Errorf("%w: targets sum to %v, want 1", ErrInvalid, sum)
	}
	if !(cfg.Range > 0) || math.IsInf(cfg.Range, 0) {
		return nil, fmt.Errorf("%w: sensing range %v must be positive and finite", ErrInvalid, cfg.Range)
	}
	if !(cfg.Speed > 0) || math.IsInf(cfg.Speed, 0) {
		return nil, fmt.Errorf("%w: speed %v must be positive and finite", ErrInvalid, cfg.Speed)
	}
	for i, p := range cfg.PoIs {
		if !(p.Pause > 0) || math.IsInf(p.Pause, 0) {
			return nil, fmt.Errorf("%w: PoI %d pause %v must be positive and finite", ErrInvalid, i, p.Pause)
		}
		if math.IsNaN(p.Pos.X) || math.IsInf(p.Pos.X, 0) ||
			math.IsNaN(p.Pos.Y) || math.IsInf(p.Pos.Y, 0) {
			return nil, fmt.Errorf("%w: PoI %d has non-finite position", ErrInvalid, i)
		}
	}
	// Disjointness: the paper requires that no two PoIs can be covered at
	// the same time, i.e. centers are more than 2r apart.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if d := geom.Dist(cfg.PoIs[i].Pos, cfg.PoIs[j].Pos); d <= 2*cfg.Range {
				return nil, fmt.Errorf("%w: PoIs %d and %d are %v apart, need > 2r = %v",
					ErrInvalid, i, j, d, 2*cfg.Range)
			}
		}
	}

	t := &Topology{
		name:   cfg.Name,
		pois:   append([]PoI(nil), cfg.PoIs...),
		target: append([]float64(nil), cfg.Target...),
		r:      cfg.Range,
		speed:  cfg.Speed,
		router: cfg.Router,
	}
	if err := t.build(cfg.Router); err != nil {
		return nil, err
	}
	return t, nil
}

// build fills the derived tables. With a Router, travel follows the
// planned polyline: distances, move times, and pass-through coverage are
// accumulated leg by leg. Each leg's length and travel time are computed
// once per transition and read for every PoI.
func (t *Topology) build(router Router) error {
	m := len(t.pois)
	t.travel = make([][]float64, m)
	t.moveT = make([][]float64, m)
	t.cover = make([][][]float64, m)
	t.dist = make([][]float64, m)
	t.passes = make([][][]PassEvent, m)
	t.paths = make([][][]geom.Point, m)
	type leg struct {
		seg  geom.Segment
		time float64
	}
	var legs []leg
	for j := 0; j < m; j++ {
		t.travel[j] = make([]float64, m)
		t.moveT[j] = make([]float64, m)
		t.cover[j] = make([][]float64, m)
		t.dist[j] = make([]float64, m)
		t.passes[j] = make([][]PassEvent, m)
		t.paths[j] = make([][]geom.Point, m)
		for k := 0; k < m; k++ {
			t.cover[j][k] = make([]float64, m)
			if j == k {
				// T_jj = P_j: the sensor stays and covers only itself.
				t.travel[j][j] = t.pois[j].Pause
				t.cover[j][j][j] = t.pois[j].Pause
				t.paths[j][j] = []geom.Point{t.pois[j].Pos}
				continue
			}
			path := []geom.Point{t.pois[j].Pos, t.pois[k].Pos}
			if router != nil {
				routed, err := router.Route(t.pois[j].Pos, t.pois[k].Pos)
				if err != nil {
					return fmt.Errorf("%w: route %d -> %d: %v", ErrInvalid, j, k, err)
				}
				if len(routed) < 2 || routed[0] != t.pois[j].Pos || routed[len(routed)-1] != t.pois[k].Pos {
					return fmt.Errorf("%w: route %d -> %d returned invalid path", ErrInvalid, j, k)
				}
				path = routed
			}
			t.paths[j][k] = path

			var dist float64
			legs = legs[:0]
			for i := 1; i < len(path); i++ {
				seg := geom.Segment{A: path[i-1], B: path[i]}
				length := seg.Length()
				dist += length
				legs = append(legs, leg{seg: seg, time: length / t.speed})
			}
			moveTime := dist / t.speed
			t.dist[j][k] = dist
			t.moveT[j][k] = moveTime
			t.travel[j][k] = moveTime + t.pois[k].Pause

			// Pass-through windows for intermediate PoIs, accumulated per
			// leg. Conventions: the origin is never covered in transit
			// (T_{jk,j} = 0) and the destination is covered for the pause
			// only (T_{jk,k} = P_k).
			for i := 0; i < m; i++ {
				if i == j || i == k {
					continue
				}
				var offset float64 // time at the start of the current leg
				for _, l := range legs {
					if iv, ok := geom.CoverageInterval(l.seg, t.pois[i].Pos, t.r); ok {
						enter := offset + iv.Lo*l.time
						exit := offset + iv.Hi*l.time
						t.cover[j][k][i] += exit - enter
						// Merge with a window that ends exactly where this
						// one begins (the path grazed a leg boundary inside
						// the disk).
						if n := len(t.passes[j][k]); n > 0 &&
							t.passes[j][k][n-1].PoI == i &&
							math.Abs(t.passes[j][k][n-1].Exit-enter) < 1e-12 {
							t.passes[j][k][n-1].Exit = exit
						} else {
							t.passes[j][k] = append(t.passes[j][k], PassEvent{
								PoI: i, Enter: enter, Exit: exit,
							})
						}
					}
					offset += l.time
				}
			}
			t.passes[j][k] = append(t.passes[j][k], PassEvent{
				PoI:   k,
				Enter: moveTime,
				Exit:  moveTime + t.pois[k].Pause,
			})
			t.cover[j][k][k] = t.pois[k].Pause
		}
	}
	return nil
}

// Path returns the routed polyline the sensor follows from j to k
// (including both endpoints; a single point for j == k). The returned
// slice must not be modified.
func (t *Topology) Path(j, k int) []geom.Point { return t.paths[j][k] }

// M returns the number of PoIs.
func (t *Topology) M() int { return len(t.pois) }

// Name returns the topology's identifier.
func (t *Topology) Name() string { return t.name }

// Range returns the sensing range r.
func (t *Topology) Range() float64 { return t.r }

// Speed returns the travel speed.
func (t *Topology) Speed() float64 { return t.speed }

// PoIAt returns PoI i.
func (t *Topology) PoIAt(i int) PoI { return t.pois[i] }

// Target returns a copy of the prescribed allocation Φ.
func (t *Topology) Target() []float64 {
	return append([]float64(nil), t.target...)
}

// TargetAt returns Φ_i without allocating.
func (t *Topology) TargetAt(i int) float64 { return t.target[i] }

// TravelTime returns T_jk: travel from j to k plus the pause at k
// (T_jj is the pause at j).
func (t *Topology) TravelTime(j, k int) float64 { return t.travel[j][k] }

// MoveTime returns the pure in-transit time from j to k (no pause).
func (t *Topology) MoveTime(j, k int) float64 { return t.moveT[j][k] }

// CoverTime returns T_{jk,i}: the time PoI i is covered during a j→k
// transition, under the paper's conventions.
func (t *Topology) CoverTime(j, k, i int) float64 { return t.cover[j][k][i] }

// CoverRow returns the coverage-time row for the j→k transition: a slice
// s with s[i] = CoverTime(j, k, i). It aliases the topology's internal
// table so hot loops can stream over PoIs without per-element accessor
// calls; callers must treat it as read-only.
func (t *Topology) CoverRow(j, k int) []float64 { return t.cover[j][k] }

// Distance returns the straight-line distance d_jk.
func (t *Topology) Distance(j, k int) float64 { return t.dist[j][k] }

// DistanceRow returns row j of the distance table: a slice s with
// s[k] = Distance(j, k). It aliases the topology's internal table;
// callers must treat it as read-only.
func (t *Topology) DistanceRow(j int) []float64 { return t.dist[j] }

// Passes returns the pass events (including the destination's pause
// window) of the j→k transition, ordered by construction: intermediate
// PoIs in index order, destination last. The returned slice must not be
// modified.
func (t *Topology) Passes(j, k int) []PassEvent { return t.passes[j][k] }

// Intermediates returns the PoIs (excluding j and k) covered in transit
// from j to k.
func (t *Topology) Intermediates(j, k int) []int {
	var out []int
	for _, e := range t.passes[j][k] {
		if e.PoI != k && e.PoI != j {
			out = append(out, e.PoI)
		}
	}
	return out
}

// WithTarget returns a copy of the topology with a different target
// allocation (same layout, ranges and timing tables).
func (t *Topology) WithTarget(target []float64) (*Topology, error) {
	cfg := Config{
		Name:   t.name,
		PoIs:   t.pois,
		Target: target,
		Range:  t.r,
		Speed:  t.speed,
		Router: t.router,
	}
	return New(cfg)
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %d PoIs, r=%v, v=%v", t.name, len(t.pois), t.r, t.speed)
}
