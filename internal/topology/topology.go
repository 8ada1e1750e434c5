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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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
// and all derived timing tables. The per-transition tables are flat and
// indexed by the transition's slot j*M + k.
type Topology struct {
	name   string
	pois   []PoI
	target []float64
	r      float64
	speed  float64

	travel []float64 // travel[slot] = T_jk (includes pause at k)
	moveT  []float64 // moveT[slot] = pure travel time j->k (no pause)
	dist   []float64 // dist[slot] = d_jk (along the routed path)

	// T_{jk,i} as compressed rows: the PoIs i with T_{jk,i} ≠ 0, in
	// ascending order, are covIdx[covPtr[slot]:covPtr[slot+1]], their
	// times the same range of covVal. Every other entry is exactly +0.
	covPtr []int
	covIdx []int32
	covVal []float64

	// The passes and the routed polyline of a slot are the ranges
	// [passPtr[slot], passPtr[slot+1]) of passSlab and
	// [pathPtr[slot], pathPtr[slot+1]) of pathSlab.
	passPtr  []int
	passSlab []PassEvent
	pathPtr  []int
	pathSlab []geom.Point
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
	}
	if err := t.build(cfg.Router); err != nil {
		return nil, err
	}
	return t, nil
}

// leg is one straight piece of a transition's path: its segment, its
// length, its travel time and the time at which the sensor starts it.
type leg struct {
	seg                  geom.Segment
	length, time, offset float64
}

// hit is a candidate pass: PoI i is covered on the parameter interval iv
// of leg l.
type hit struct {
	i, l int32
	iv   geom.Interval
}

// byX is a PoI in the x-sorted index build searches for candidates.
type byX struct {
	pos geom.Point
	i   int32
}

// build fills the derived tables. With a Router, travel follows the
// planned polyline: distances, move times, and pass-through coverage are
// accumulated leg by leg.
//
// Pass-through coverage is computed from candidates, not from every PoI:
// a leg can cover only the PoIs inside its window (legWindow), found by a
// binary search in the PoIs sorted by x and a test of y. The hits are
// then ordered by (PoI, leg), which is the order a loop over every PoI
// and, inside it, over every leg visits them, and accumulated in that
// order, so each cover sum and each pass is that loop's bit for bit.
// Each leg's time offset is the running sum of the leg times before it.
// Rows, lists, passes and paths are carved from a few slabs.
func (t *Topology) build(router Router) error {
	m := len(t.pois)
	n := m * m
	rows := make([]float64, 3*n)
	t.travel, t.moveT, t.dist = rows[:n:n], rows[n:2*n:2*n], rows[2*n:]
	ptrs := make([]int, 3*(n+1))
	t.covPtr, t.passPtr, t.pathPtr = ptrs[:n+1:n+1], ptrs[n+1:2*(n+1):2*(n+1)], ptrs[2*(n+1):]
	t.covIdx = make([]int32, 0, n+n/2)
	t.covVal = make([]float64, 0, n+n/2)
	t.passSlab = make([]PassEvent, 0, n+n/2)
	if router == nil {
		t.pathSlab = make([]geom.Point, 0, 2*n-m)
	}

	index := make([]byX, m)
	for i, p := range t.pois {
		index[i] = byX{pos: p.Pos, i: int32(i)}
	}
	slices.SortFunc(index, func(a, b byX) int {
		if c := cmp.Compare(a.pos.X, b.pos.X); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})

	var legs []leg
	var hits []hit
	for j := 0; j < m; j++ {
		for k := 0; k < m; k++ {
			slot := j*m + k
			if j == k {
				// T_jj = P_j: the sensor stays and covers only itself.
				t.travel[slot] = t.pois[j].Pause
				t.covIdx = append(t.covIdx, int32(j))
				t.covVal = append(t.covVal, t.pois[j].Pause)
				t.pathSlab = append(t.pathSlab, t.pois[j].Pos)
				t.endSlot(slot)
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
			t.pathSlab = append(t.pathSlab, path...)

			var dist, offset float64
			legs = legs[:0]
			for i := 1; i < len(path); i++ {
				seg := geom.Segment{A: path[i-1], B: path[i]}
				length := seg.Length()
				time := length / t.speed
				legs = append(legs, leg{seg: seg, length: length, time: time, offset: offset})
				dist += length
				offset += time
			}
			moveTime := dist / t.speed
			t.dist[slot] = dist
			t.moveT[slot] = moveTime
			t.travel[slot] = moveTime + t.pois[k].Pause

			// Pass-through windows for intermediate PoIs. Conventions:
			// the origin is never covered in transit (T_{jk,j} = 0) and
			// the destination is covered for the pause only
			// (T_{jk,k} = P_k).
			hits = hits[:0]
			for l, lg := range legs {
				x0, x1, y0, y1 := legWindow(lg.seg, lg.length, t.r)
				// q is the first PoI with x ≥ x0.
				q, hi := 0, m
				for q < hi {
					if h := int(uint(q+hi) >> 1); index[h].pos.X < x0 {
						q = h + 1
					} else {
						hi = h
					}
				}
				for ; q < m && index[q].pos.X <= x1; q++ {
					i, c := index[q].i, index[q].pos
					if c.Y < y0 || c.Y > y1 || int(i) == j || int(i) == k {
						continue
					}
					if iv, ok := geom.CoverageInterval(lg.seg, c, t.r); ok {
						hits = append(hits, hit{i: i, l: int32(l), iv: iv})
					}
				}
			}
			slices.SortFunc(hits, func(a, b hit) int {
				if c := cmp.Compare(a.i, b.i); c != 0 {
					return c
				}
				return cmp.Compare(a.l, b.l)
			})

			first, start := len(t.passSlab), len(t.covIdx)
			for h := 0; h < len(hits); {
				i := hits[h].i
				var cover float64
				for ; h < len(hits) && hits[h].i == i; h++ {
					lg := legs[hits[h].l]
					enter := lg.offset + hits[h].iv.Lo*lg.time
					exit := lg.offset + hits[h].iv.Hi*lg.time
					cover += exit - enter
					// Merge with a window that ends exactly where this
					// one begins (the path grazed a leg boundary inside
					// the disk).
					if p := len(t.passSlab); p > first &&
						t.passSlab[p-1].PoI == int(i) &&
						math.Abs(t.passSlab[p-1].Exit-enter) < 1e-12 {
						t.passSlab[p-1].Exit = exit
					} else {
						t.passSlab = append(t.passSlab, PassEvent{
							PoI: int(i), Enter: enter, Exit: exit,
						})
					}
				}
				if cover != 0 {
					t.covIdx = append(t.covIdx, i)
					t.covVal = append(t.covVal, cover)
				}
			}
			q, _ := slices.BinarySearch(t.covIdx[start:], int32(k))
			t.covIdx = slices.Insert(t.covIdx, start+q, int32(k))
			t.covVal = slices.Insert(t.covVal, start+q, t.pois[k].Pause)
			t.passSlab = append(t.passSlab, PassEvent{
				PoI:   k,
				Enter: moveTime,
				Exit:  moveTime + t.pois[k].Pause,
			})
			t.endSlot(slot)
		}
	}
	return nil
}

// endSlot closes slot's ranges of the cover lists, passes and paths at
// the slabs' current ends.
func (t *Topology) endSlot(slot int) {
	t.covPtr[slot+1] = len(t.covIdx)
	t.passPtr[slot+1] = len(t.passSlab)
	t.pathPtr[slot+1] = len(t.pathSlab)
}

// legWindow returns the box [x0, x1] × [y0, y1] outside of which
// geom.CoverageInterval(seg, c, r) never reports coverage: the leg's
// bounding box grown by 2r + 1e-6·length + 1e-12·(the largest endpoint
// coordinate), where length is seg.Length(). Rounding can make
// CoverageInterval accept a point a little farther than r from the leg,
// but by much less than this margin (DESIGN §6.2 bounds it).
func legWindow(seg geom.Segment, length, r float64) (x0, x1, y0, y1 float64) {
	a, b := seg.A, seg.B
	scale := max(math.Abs(a.X), math.Abs(a.Y), math.Abs(b.X), math.Abs(b.Y))
	margin := 2*r + 1e-6*length + 1e-12*scale
	return min(a.X, b.X) - margin, max(a.X, b.X) + margin,
		min(a.Y, b.Y) - margin, max(a.Y, b.Y) + margin
}

// Path returns the routed polyline the sensor follows from j to k
// (including both endpoints; a single point for j == k). The returned
// slice must not be modified.
func (t *Topology) Path(j, k int) []geom.Point {
	s := j*len(t.pois) + k
	return t.pathSlab[t.pathPtr[s]:t.pathPtr[s+1]:t.pathPtr[s+1]]
}

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
func (t *Topology) TravelTime(j, k int) float64 { return t.travel[j*len(t.pois)+k] }

// MoveTime returns the pure in-transit time from j to k (no pause).
func (t *Topology) MoveTime(j, k int) float64 { return t.moveT[j*len(t.pois)+k] }

// CoverTime returns T_{jk,i}: the time PoI i is covered during a j→k
// transition, under the paper's conventions.
func (t *Topology) CoverTime(j, k, i int) float64 {
	idx, val := t.CoverList(j, k)
	if q, ok := slices.BinarySearch(idx, int32(i)); ok {
		return val[q]
	}
	return 0
}

// CoverList returns the nonzero coverage times of the j→k transition:
// the PoIs idx (ascending) and val[q] = CoverTime(j, k, idx[q]). Every
// PoI not listed has CoverTime exactly +0. The slices alias the
// topology's tables; callers must treat them as read-only.
func (t *Topology) CoverList(j, k int) (idx []int32, val []float64) {
	s := j*len(t.pois) + k
	lo, hi := t.covPtr[s], t.covPtr[s+1]
	return t.covIdx[lo:hi:hi], t.covVal[lo:hi:hi]
}

// CoverLists returns every transition's cover list at once, in
// compressed-row form: the list of the j→k transition is
// idx[ptr[s]:ptr[s+1]] and val[ptr[s]:ptr[s+1]] with s = j*M + k, as
// CoverList returns it. The slices alias the topology's tables; callers
// must treat them as read-only.
func (t *Topology) CoverLists() (ptr []int, idx []int32, val []float64) {
	return t.covPtr, t.covIdx, t.covVal
}

// Distance returns the distance d_jk along the routed path.
func (t *Topology) Distance(j, k int) float64 { return t.dist[j*len(t.pois)+k] }

// DistanceRow returns row j of the distance table: a slice s with
// s[k] = Distance(j, k). It aliases the topology's internal table;
// callers must treat it as read-only.
func (t *Topology) DistanceRow(j int) []float64 {
	m := len(t.pois)
	return t.dist[j*m : (j+1)*m : (j+1)*m]
}

// Passes returns the pass events (including the destination's pause
// window) of the j→k transition, ordered by construction: intermediate
// PoIs in index order, destination last. The returned slice must not be
// modified.
func (t *Topology) Passes(j, k int) []PassEvent {
	s := j*len(t.pois) + k
	return t.passSlab[t.passPtr[s]:t.passPtr[s+1]:t.passPtr[s+1]]
}

// Intermediates returns the PoIs (excluding j and k) covered in transit
// from j to k.
func (t *Topology) Intermediates(j, k int) []int {
	var out []int
	for _, e := range t.Passes(j, k) {
		if e.PoI != k && e.PoI != j {
			out = append(out, e.PoI)
		}
	}
	return out
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %d PoIs, r=%v, v=%v", t.name, len(t.pois), t.r, t.speed)
}
