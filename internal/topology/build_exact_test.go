package topology

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/route"
)

// referenceTables are build's outputs as the per-PoI leg loop computed
// them: each leg's length and travel time recomputed for every PoI.
type referenceTables struct {
	travel, moveT, dist [][]float64
	cover               [][][]float64
	passes              [][][]PassEvent
}

func referenceBuild(t *Topology) referenceTables {
	m := len(t.pois)
	var ref referenceTables
	ref.travel = make([][]float64, m)
	ref.moveT = make([][]float64, m)
	ref.dist = make([][]float64, m)
	ref.cover = make([][][]float64, m)
	ref.passes = make([][][]PassEvent, m)
	for j := 0; j < m; j++ {
		ref.travel[j] = make([]float64, m)
		ref.moveT[j] = make([]float64, m)
		ref.dist[j] = make([]float64, m)
		ref.cover[j] = make([][]float64, m)
		ref.passes[j] = make([][]PassEvent, m)
		for k := 0; k < m; k++ {
			ref.cover[j][k] = make([]float64, m)
			if j == k {
				ref.travel[j][j] = t.pois[j].Pause
				ref.cover[j][j][j] = t.pois[j].Pause
				continue
			}
			path := t.paths[j][k]
			var dist float64
			for leg := 1; leg < len(path); leg++ {
				dist += geom.Dist(path[leg-1], path[leg])
			}
			moveTime := dist / t.speed
			ref.dist[j][k] = dist
			ref.moveT[j][k] = moveTime
			ref.travel[j][k] = moveTime + t.pois[k].Pause
			for i := 0; i < m; i++ {
				if i == j || i == k {
					continue
				}
				var offset float64
				for leg := 1; leg < len(path); leg++ {
					seg := geom.Segment{A: path[leg-1], B: path[leg]}
					legTime := seg.Length() / t.speed
					if iv, ok := geom.CoverageInterval(seg, t.pois[i].Pos, t.r); ok {
						enter := offset + iv.Lo*legTime
						exit := offset + iv.Hi*legTime
						ref.cover[j][k][i] += exit - enter
						ps := ref.passes[j][k]
						if n := len(ps); n > 0 && ps[n-1].PoI == i && math.Abs(ps[n-1].Exit-enter) < 1e-12 {
							ps[n-1].Exit = exit
						} else {
							ref.passes[j][k] = append(ps, PassEvent{PoI: i, Enter: enter, Exit: exit})
						}
					}
					offset += legTime
				}
			}
			ref.passes[j][k] = append(ref.passes[j][k], PassEvent{
				PoI: k, Enter: moveTime, Exit: moveTime + t.pois[k].Pause,
			})
			ref.cover[j][k][k] = t.pois[k].Pause
		}
	}
	return ref
}

// routedGrid is a 4×4 grid of PoIs with two walls, so many routes bend
// around a wall corner and pass other PoIs on more than one leg.
func routedGrid(t *testing.T) *Topology {
	t.Helper()
	planner, err := route.New([]route.Rect{
		{MinX: 1.4, MinY: -0.5, MaxX: 1.6, MaxY: 2.2},
		{MinX: 2.4, MinY: 0.8, MaxX: 2.6, MaxY: 3.5},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Name: "routed-grid", Range: 0.3, Speed: 1.5, Router: planner}
	for i := 0; i < 16; i++ {
		cfg.PoIs = append(cfg.PoIs, PoI{Pos: geom.Point{X: float64(i % 4), Y: float64(i / 4)}, Pause: 1 + float64(i%3)/4})
		cfg.Target = append(cfg.Target, 1.0/16)
	}
	top, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestBuildMatchesReferenceLoops holds every table build fills to the
// per-PoI leg loop bit for bit, on perfbench's 64-PoI random field, a
// routed grid with multi-leg paths and the four paper topologies.
func TestBuildMatchesReferenceLoops(t *testing.T) {
	field, err := Random(rng.New(64), RandomConfig{M: 64, Width: 40 * 64, Height: 40 * 64})
	if err != nil {
		t.Fatal(err)
	}
	tops := []*Topology{field, routedGrid(t)}
	for n := 1; n <= 4; n++ {
		p, err := Paper(n)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, p)
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for _, top := range tops {
		t.Run(top.Name(), func(t *testing.T) {
			ref := referenceBuild(top)
			m := top.M()
			multiLeg := 0
			for j := 0; j < m; j++ {
				for k := 0; k < m; k++ {
					at := fmt.Sprintf("(%d, %d)", j, k)
					if bits(top.travel[j][k]) != bits(ref.travel[j][k]) ||
						bits(top.moveT[j][k]) != bits(ref.moveT[j][k]) ||
						bits(top.dist[j][k]) != bits(ref.dist[j][k]) {
						t.Fatalf("%s: travel/moveT/dist differ from the reference", at)
					}
					for i := 0; i < m; i++ {
						if bits(top.cover[j][k][i]) != bits(ref.cover[j][k][i]) {
							t.Fatalf("%s: cover[%d] = %v, want %v", at, i, top.cover[j][k][i], ref.cover[j][k][i])
						}
					}
					got, want := top.passes[j][k], ref.passes[j][k]
					if len(got) != len(want) {
						t.Fatalf("%s: %d passes, want %d", at, len(got), len(want))
					}
					for e := range got {
						if got[e].PoI != want[e].PoI || bits(got[e].Enter) != bits(want[e].Enter) || bits(got[e].Exit) != bits(want[e].Exit) {
							t.Fatalf("%s: pass %d = %+v, want %+v", at, e, got[e], want[e])
						}
					}
					if len(top.paths[j][k]) > 2 && len(got) > 1 {
						multiLeg++
					}
				}
			}
			if top.Name() == "routed-grid" && multiLeg == 0 {
				t.Fatal("no multi-leg route passes an intermediate PoI; the fixture must exercise the leg loop")
			}
		})
	}
}
